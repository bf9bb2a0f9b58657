package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stamp identifies the machine and code a result was measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	// StealFrac is the share of the machine's CPU time the hypervisor gave
	// to other guests while the workload ran. Runs with a high share are
	// slowed by neighbours, not by the program.
	StealFrac float64 `json:"steal_frac"`
}

func stampNow() stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the checked-out commit: PERFBENCH_COMMIT when set, else
// git's HEAD, else "unknown" (a source export has no git metadata).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuTicks reads the machine-wide steal and total CPU time from the first
// line of /proc/stat; both are 0 where it is unavailable.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64) // a malformed field counts as 0
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// memWatch samples the Go runtime's estimate of resident memory — memory
// mapped by the runtime minus what it has released to the OS — every few
// milliseconds, and keeps the peak since the last take. Peaks are taken per
// pass: the process-wide high-water mark is one maximum over a whole run,
// and on an allocation-heavy workload it swings with GC timing.
type memWatch struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startMemWatch() *memWatch {
	w := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			rss := s[0].Value.Uint64() - s[1].Value.Uint64()
			w.mu.Lock()
			w.peak = max(w.peak, rss)
			w.mu.Unlock()
			select {
			case <-t.C:
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

// take returns the peak in MB since the previous take and starts a new one.
func (w *memWatch) take() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := w.peak
	w.peak = 0
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (w *memWatch) close() {
	close(w.stop)
	<-w.done
}

// procStats is a snapshot of process-wide runtime counters.
type procStats struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      float64
}

var procSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readProcStats() procStats {
	s := make([]metrics.Sample, len(procSamples))
	for i, name := range procSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return procStats{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocBytes: val(s[2].Value)}
}

// procDelta turns two snapshots around ops operations into gc.cpu_frac and
// alloc.mb_per_run.
func procDelta(a, b procStats, ops int) (gcFrac, mbPerRun float64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	if ops > 0 {
		mbPerRun = (b.allocBytes - a.allocBytes) / float64(ops) / (1 << 20)
	}
	return gcFrac, mbPerRun
}
