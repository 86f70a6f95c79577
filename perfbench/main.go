// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one workload from a seed, checks the workload's outputs, and
// prints every metric by name and unit; the last line of standard output is
// the machine-readable result. See README.md for the workloads, the metrics
// and what each metric should move.
//
//	perfbench --workload replay-cons --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value. Samples is the number of observations behind
// it (for a percentile, the sample count it was taken from).
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

// report is what a workload run returns.
type report struct {
	Attempted int64
	Failed    int64
	// Problems lists every failed output check; any entry makes the run
	// incorrect.
	Problems []string
	Metrics  map[string]metric
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Dir is a private scratch directory under the build directory; it is
	// removed when the run ends.
	Dir string
	// Workers is the load and training parallelism: the host's CPU count.
	Workers int
	// Spans collects the traced run's spans; nil when tracing is off.
	Spans *recorder
	// Heap measures the peak live heap of each unit of work.
	Heap *heapWatch
}

var workloads = map[string]func(options) (*report, error){
	"replay-cons": runReplay,
	"train-rlbf":  runTrain,
	"serve-ha":    runServe,
}

// procs caps GOMAXPROCS for a workload. serve-ha runs on one: with two, the
// scheduler's idle threads spin while goroutines wait on loopback I/O, and
// that spinning counts as CPU time in amounts that follow timing, not work.
// Three runs of one seed read 5477–6226 submits per reference CPU-second at
// GOMAXPROCS 2, and 7329–7450 at 1 while the host slowed by 45%.
var procs = map[string]int{"serve-ha": 1}

// endToEnd and perLayer are the metric names each mode prints, in order;
// they mirror BENCHMARK.json. Every workload prints all of them.
var endToEnd = []string{"setup_s", "mem_peak_mb", "throughput_per_ref_cpu_s"}

func main() {
	workload := flag.String("workload", "", "replay-cons, train-rlbf or serve-ha")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement length in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *traced)
		os.Exit(2)
	}
	if p := procs[*workload]; p > 0 {
		runtime.GOMAXPROCS(p)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch directory: %v\n", err)
		os.Exit(1)
	}
	code := execute(*workload, run, options{
		Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		Dir: dir, Workers: runtime.NumCPU(),
	})
	os.RemoveAll(dir)
	os.Exit(code)
}

func execute(name string, run func(options) (*report, error), o options) int {
	if o.Trace {
		o.Spans = newRecorder()
	}
	printHost()
	o.Heap = watchHeap()
	defer o.Heap.close()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if o.Spans != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, o.Seed))
		if err := o.Spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	fmt.Println(calibSummary())
	names := endToEnd
	if o.Trace {
		names = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(rep.Problems) == 0 && rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, p := range rep.Problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	for _, n := range names {
		m, ok := rep.Metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", name, n)
			return 1
		}
		fmt.Printf("metric %-34s %14.6g %-6s samples=%d\n", n, m.Value, m.Unit, m.Samples)
		out.Metrics[n] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// MarshalJSON prints a metric as the result line's {"value", "unit"} pair;
// the sample count goes to the human-readable lines above it.
func (m metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{m.Value, m.Unit})
}

// printHost records the machine the numbers come from.
func printHost() {
	host := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	b, _ := json.Marshal(host)
	fmt.Printf("host %s\n", b)
}

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

// heapWatch tracks the largest live Go heap the garbage collections of a
// stretch of work found. Peak resident memory adds the collector's slack,
// which depends on when collections happen to run: it varied by 15% between
// runs of one seed. The live-heap peak is only as good as the collections
// that sample it, so workloads measure it in a separate pass (peakLive) that
// collects often.
type heapWatch struct {
	peak atomic.Uint64
	stop atomic.Bool
}

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// arm registers a finalizer on fresh garbage; it runs after the next
// collection, samples the heap that collection marked live, and re-arms.
func (w *heapWatch) arm() {
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) {
		if v := liveHeap(); v > w.peak.Load() {
			w.peak.Store(v)
		}
		if !w.stop.Load() {
			w.arm()
		}
	})
}

// cut returns the peak live heap, in MB, since the previous cut. It
// collects first, so the heap live at the cut counts, and so the next stretch
// of work starts from a fresh collection: its collections then fall at the
// same points of the work on every run.
func (w *heapWatch) cut() float64 {
	runtime.GC()
	return float64(max(w.peak.Swap(0), liveHeap())) / (1 << 20)
}

func (w *heapWatch) close() { w.stop.Store(true) }

// peakLive runs work with a collection at every 10% of heap growth and
// returns the peak live heap they found, in MB. The timed measurement runs
// at the default collector setting; this pass is not timed.
func (w *heapWatch) peakLive(work func() error) (float64, error) {
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	w.cut()
	if err := work(); err != nil {
		return 0, err
	}
	return w.cut(), nil
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs, the mean of the middle two for an even
// count: runs on a faster host fit more samples, and a nearest-rank median
// of an even count would then read low.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// cpuNow returns the CPU time the process's threads have run, user and
// system. The bounded timings start from it; see calib.go.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed uint64, k int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
