package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the steal
// ticks and the total over user, nice, system, idle, iowait, irq,
// softirq and steal. ok is false where /proc/stat is unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// loadAvg returns the one-minute load average (0 where unavailable).
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// residentBytes reads the process's current resident set from
// /proc/self/statm.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// meter brackets the timed phases of a run: it samples the resident set
// every rssEvery until stop (so the peak excludes prep), and records the
// host's steal ticks and load average over the same interval.
type meter struct {
	stealStart, totalStart uint64
	stop                   chan struct{}
	done                   chan struct{}
	mu                     sync.Mutex
	peak                   int64
}

const rssEvery = 10 * time.Millisecond

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{}), peak: residentBytes()}
	m.stealStart, m.totalStart, _ = cpuTicks()
	go func() {
		defer close(m.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				r := residentBytes()
				m.mu.Lock()
				if r > m.peak {
					m.peak = r
				}
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// meterReading is what a meter saw over the timed phases.
type meterReading struct {
	PeakRSSMB  float64
	StealShare float64
	LoadAvg    float64
}

// end stops sampling and returns the reading; it waits for the sampler
// goroutine to exit.
func (m *meter) end() meterReading {
	close(m.stop)
	<-m.done
	r := meterReading{LoadAvg: loadAvg()}
	if rb := residentBytes(); rb > m.peak {
		m.peak = rb
	}
	r.PeakRSSMB = float64(m.peak) / (1 << 20)
	if steal, total, ok := cpuTicks(); ok && total > m.totalStart {
		r.StealShare = float64(steal-m.stealStart) / float64(total-m.totalStart)
	}
	return r
}

// hostInfo is the per-run environment record printed before the result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func currentHost() hostInfo {
	commit := os.Getenv("NDBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
	}
}

// capProcs keeps GOMAXPROCS at or below the CPUs the process may run on.
func capProcs() {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
}
