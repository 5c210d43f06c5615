package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// stamp identifies the host a result was measured on; numbers from
// different stamps are not comparable.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostStamp() stamp {
	return stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// senders is the number of load-generating connections and goroutines: the
// load comes from this same process, so more senders than cores would
// measure the harness fighting the server for CPU.
func senders() int { return min(runtime.NumCPU(), 2) }

// heapCost is the wall time and the allocation work of the measured
// calls of one pass.
type heapCost struct {
	hostS   float64
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
	gcRuns  uint32
}

// meter accumulates heapCost over one or more measured intervals. Memory
// statistics are read outside the timed interval: reading them stops the
// world.
type meter struct {
	cost   heapCost
	before runtime.MemStats
	start  time.Time
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.before)
	m.start = time.Now()
}

func (m *meter) end() {
	hostS := time.Since(m.start).Seconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.cost.hostS += hostS
	m.cost.mallocs += after.Mallocs - m.before.Mallocs
	m.cost.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.cost.gcPause += time.Duration(after.PauseTotalNs - m.before.PauseTotalNs)
	m.cost.gcRuns += after.NumGC - m.before.NumGC
}

// measured runs fn as one measured interval. The collector runs first so
// that every call starts from the same heap state.
func measured(fn func()) heapCost {
	var m meter
	runtime.GC()
	m.begin()
	fn()
	m.end()
	return m.cost
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark, from
// /proc/self/status. It covers set-up, warm-up and every pass: the process
// is the unit a user provisions memory for.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: parse VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}
