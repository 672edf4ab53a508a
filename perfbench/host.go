package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostRecord identifies the machine a result was measured on, so that
// only same-host results are compared and noisy runs can be seen.
type hostRecord struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Load1Before float64 `json:"load1_before"`
	Load1After  float64 `json:"load1_after"`
}

func newHostRecord() hostRecord {
	return hostRecord{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		Load1Before: load1(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// load1 is the 1-minute load average (-1 when unavailable).
func load1() float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return -1
	}
	return float64(si.Loads[0]) / 65536
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu   time.Duration // user + system
	alloc uint64        // bytes allocated on the heap since start
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(allocSample)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

// peakRSSMB is the process's peak resident set in MB since the last
// resetPeakRSS, or since start.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS lowers the process's peak resident set to its current one
// (Linux 4.0 and later), so that the next peakRSSMB covers one run.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
