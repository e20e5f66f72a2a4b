// Command perfbench is NetSeer's end-to-end benchmark. It drives one
// workload against the real stack in this process and prints, as its last
// line, one JSON object: whether every output matched its reference, the
// operations attempted and failed, and the metrics.
//
//	perfbench --workload web|ingest|query --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// same workload runs again with per-layer timers, a CPU profile and
// replays of each collector layer, and the metrics are the per-layer set.
// Run it through run.sh, which builds it from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// procStart is taken during package initialisation, before main: set-up
// time is measured from here.
var procStart = time.Now()

// outDir holds everything a run leaves behind (WAL scratch directories,
// traced-run artifacts), relative to the checkout root.
const outDir = ".bench_build"

// watchdogAfter bounds a run of up to 10 seconds, which takes under 30 s;
// longer runs get 15 times their length.
const watchdogAfter = 150 * time.Second

// batchRate is the exporter's fixed rate, in 50-event batches per second
// (50,000 events/s): well inside what the durable collector sustains, so
// ack latency shows the write path's delay, not a growing backlog.
const batchRate = 1000

// endToEnd names the metrics an untraced run reports, on every workload.
var endToEnd = []string{"setup_s", "work_per_s", "disk_b_per_event", "heap_peak_mb"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sizes scales a workload. The command line derives them from --seconds;
// the smoke test shrinks them.
type sizes struct {
	seconds    int     // the --seconds the sizes derive from (0: custom)
	rounds     int     // web: simulation rounds
	windowMs   float64 // web: simulated window
	events     int     // ingest: stream length; query: preload length
	fixedSec   float64 // ingest: fixed-rate phase length
	mixedSec   float64 // query: reads-beside-writes phase length
	probeEach  int     // traced runs: queries per verb in the probe
	walProbeMs int     // traced runs: WAL-alone fixed-rate phase length
}

func sizesFor(seconds int) sizes {
	return sizes{
		seconds:    seconds,
		rounds:     max(1, (seconds+1)/3),
		windowMs:   10,
		events:     100_000 * seconds,
		fixedSec:   0.4 * float64(seconds),
		mixedSec:   0.7 * float64(seconds),
		probeEach:  40,
		walProbeMs: 1000,
	}
}

// bench is one run's shared state: inputs, the result being built, and
// the traced run's layer table.
type bench struct {
	workload string
	seed     uint64
	size     sizes
	trace    bool
	work     string // scratch directory, removed at exit
	artifact string // traced-run output directory

	res    result
	layers *layerTable
	spans  *spanLog
	heap   *heapSampler
	errs   []string
}

// fail records a failed reference check; the run still completes.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.errs) < 20 {
		b.errs = append(b.errs, msg)
	}
	b.res.Correct = false
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// setupDone records set-up time: everything from process start to the
// first timed phase.
func (b *bench) setupDone() {
	b.set("setup_s", time.Since(procStart).Seconds(), "s")
}

var workloads = map[string]func(*bench) error{
	"web":    runWeb,
	"ingest": runIngest,
	"query":  runQuery,
}

func main() {
	name := flag.String("workload", "", "workload: web, ingest or query")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds (scales each workload's phases)")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload web|ingest|query --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// A run that has not finished by then is stuck: print every
	// goroutine's stack and fail, rather than run into the caller's limit.
	limit := max(watchdogAfter, 15*time.Duration(*seconds)*time.Second)
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v; goroutines:\n", limit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	b, err := execute(*name, run, *seed, sizesFor(*seconds), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and fills in the result. Traced runs also
// write their artifacts and print the layer table.
func execute(name string, run func(*bench) error, seed uint64, sz sizes, traced bool) (*bench, error) {
	work, err := os.MkdirTemp(mkdir(filepath.Join(outDir, "work")), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		workload: name, seed: seed, size: sz, trace: traced, work: work,
		res:  result{Correct: true, Metrics: map[string]metric{}},
		heap: startHeapSampler(),
	}
	if traced {
		b.layers = newLayerTable()
		b.spans = &spanLog{}
		b.artifact = mkdir(filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d", name, seed)))
	}
	err = run(b)
	peak := b.heap.stop()
	if err != nil {
		return nil, err
	}
	b.set("heap_peak_mb", float64(peak)/(1<<20), "MiB")
	if traced {
		if err := b.finishTrace(); err != nil {
			return nil, err
		}
	} else if err := saveUntraced(b); err != nil {
		return nil, err
	}
	return b, nil
}

func mkdir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

// heapSampler tracks the peak Go heap in use (live and not yet swept
// objects) by sampling runtime/metrics every 5 ms while measuring is on:
// during the timed phases and recovery, not during the benchmark's own
// input generation and reference checks.
type heapSampler struct {
	on     atomic.Bool
	stopCh chan struct{}
	done   chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if h.on.Load() {
				metrics.Read(s)
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-t.C:
			case <-h.stopCh:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) measure(on bool) { h.on.Store(on) }

func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	return <-h.done
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// latencyStats turns per-batch start and ack times (ns) into latencies in
// ms; a batch with no ack (0) is skipped and counted.
func latencyStats(start, acked []int64) (lat []float64, missing int) {
	for i := range start {
		if acked[i] == 0 {
			missing++
			continue
		}
		lat = append(lat, float64(acked[i]-start[i])/1e6)
	}
	return lat, missing
}

// spanLog records spans around the benchmark's calls into each layer,
// kept in memory and written out when a traced run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// begin opens a span; parent -1 marks a root. Nil logs record nothing.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(procStart))})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[id].End = int64(time.Since(procStart))
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
