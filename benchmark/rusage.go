package main

import (
	"os"
	"strings"
	"syscall"
)

func rusageSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageSeconds(&ru)
}

// rssMiB converts a Linux ru_maxrss (KiB) to MiB.
func rssMiB(maxrssKiB int64) float64 { return float64(maxrssKiB) / 1024 }

// peakRSSMiB is this process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rssMiB(ru.Maxrss)
}

// loadAvg1 is the 1-minute load average, as the kernel prints it.
func loadAvg1() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return "unknown"
	}
	return fields[0]
}
