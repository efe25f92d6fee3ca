package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procTicks reads the aggregate cpu line of /proc/stat: total ticks and
// steal ticks (time the hypervisor ran someone else while this guest
// wanted the CPU). Both are zero where /proc/stat is unavailable.
func procTicks() (total, steal int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, f := range fields[1:] {
			v, _ := strconv.ParseInt(f, 10, 64)
			// user nice system idle iowait irq softirq steal [guest...]:
			// guest time is already counted in user.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		break
	}
	return total, steal
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Runtime metric names read at phase boundaries.
const (
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmGCCycles  = "/gc/cycles/total:gc-cycles"
	rmAllocated = "/gc/heap/allocs:bytes"
	rmHeapLive  = "/gc/heap/live:bytes"
)

// phaseSample is a snapshot of the process counters a measured phase is
// the difference of.
type phaseSample struct {
	at         time.Time
	cpu        time.Duration
	gcCPU      float64
	totalCPU   float64
	gcCycles   uint64
	allocBytes uint64
	ticks      int64
	steal      int64
}

func samplePhase() phaseSample {
	rs := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmGCCycles}, {Name: rmAllocated}}
	metrics.Read(rs)
	total, steal := procTicks()
	return phaseSample{
		at:         time.Now(),
		cpu:        cpuTime(),
		gcCPU:      rs[0].Value.Float64(),
		totalCPU:   rs[1].Value.Float64(),
		gcCycles:   rs[2].Value.Uint64(),
		allocBytes: rs[3].Value.Uint64(),
		ticks:      total,
		steal:      steal,
	}
}

// phaseDelta is what happened between two samples.
type phaseDelta struct {
	CPU        time.Duration
	GCCPUFrac  float64
	GCCycles   uint64
	AllocBytes uint64
	StealTicks int64
	StealFrac  float64
}

func (a phaseSample) to(b phaseSample) phaseDelta {
	d := phaseDelta{
		CPU:        b.cpu - a.cpu,
		GCCycles:   b.gcCycles - a.gcCycles,
		AllocBytes: b.allocBytes - a.allocBytes,
		StealTicks: b.steal - a.steal,
	}
	if t := b.totalCPU - a.totalCPU; t > 0 {
		d.GCCPUFrac = (b.gcCPU - a.gcCPU) / t
	}
	if t := b.ticks - a.ticks; t > 0 {
		d.StealFrac = float64(d.StealTicks) / float64(t)
	}
	return d
}

// heapWatch samples the live heap (what the last GC cycle marked
// reachable) every interval until stopped. runtime/metrics reads do not
// stop the world, so watching does not perturb the phase it measures.
type heapWatch struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB; written by the watcher, read after done
}

func watchHeap(interval time.Duration) *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: rmHeapLive}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(s)
			w.samples = append(w.samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// Stop ends the watch and returns the peak: the 95th percentile of the
// samples. With two workers the single highest sample is the moment the
// two largest functions' live sets happened to coincide at a GC cycle,
// which moved by 25-30% between runs of identical work; the percentile
// is the level the heap holds at the top of the phase.
func (w *heapWatch) Stop() float64 {
	close(w.stop)
	<-w.done
	return percentile(w.samples, 95).Value
}

// Machine is the diagnostic fingerprint every run records. It never
// adjusts or drops a measurement.
type Machine struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	StealTicks int64   `json:"steal_ticks"`
	StealFrac  float64 `json:"steal_frac"`
}

func machine(seed int64) Machine {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
	}
}
