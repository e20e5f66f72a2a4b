package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
)

// layerSpec is one per-layer metric. README.md maps each to the
// end-to-end figure it should move.
type layerSpec struct {
	name, unit string
}

// layerSpecs lists every per-layer metric, in table order. Every traced
// run reports all of them; a layer a workload does not run reads 0.
var layerSpecs = []layerSpec{
	{"sim.self_samples", "count"}, {"sim.events", "count"}, {"sim.pending_peak", "count"},
	{"dataplane.self_samples", "count"}, {"dataplane.pkts", "count"}, {"pkt.self_samples", "count"},
	{"core.self_samples", "count"}, {"core.exported_events", "count"}, {"core.lost_event_pkts", "count"},
	{"groupcache.self_samples", "count"}, {"groupcache.evictions", "count"},
	{"batcher.self_samples", "count"}, {"batcher.overflow", "count"},
	{"fpelim.self_samples", "count"}, {"fpelim.suppressed", "count"},
	{"sketch.self_samples", "count"},
	{"host.self_samples", "count"}, {"nic.self_samples", "count"},
	{"link.self_samples", "count"}, {"workload.self_samples", "count"},
	{"collector.self_samples", "count"}, {"collector.wal.self_samples", "count"},
	{"runtime.self_samples", "count"},
	{"runtime.gc_s", "s"}, {"runtime.mallocs", "count"}, {"runtime.gc_cycles", "count"},
	{"ack_p50_ms", "ms"}, {"ack_p99_ms", "ms"},
	{"collector.client.deliver_s", "s"}, {"collector.client.flush_wait_s", "s"},
	{"collector.client.queue_peak", "count"}, {"collector.client.retransmits", "count"},
	{"collector.decode_s", "s"},
	{"collector.store.deliver_s", "s"}, {"collector.store.memory_bytes", "bytes"},
	{"wal.fsyncs", "count"}, {"wal.appends_per_fsync", "ratio"}, {"wal.append_durable_p50_ms", "ms"},
	{"collector.snapshot_bytes", "bytes"}, {"collector.checkpoint_s", "s"},
	{"recover_us_per_event", "us"}, {"wal.replay_s", "s"}, {"collector.recover.deliver_s", "s"},
	{"collector.query.flow_ms", "ms"}, {"collector.query.path_ms", "ms"},
	{"collector.query.switch_ms", "ms"}, {"collector.query.type_ms", "ms"},
	{"collector.query.window_ms", "ms"}, {"collector.query.summary_ms", "ms"},
	{"collector.query.rows", "count"},
}

// layerTable accumulates a traced run's per-layer values.
type layerTable struct {
	vals  map[string]float64
	profs [][]byte // one CPU profile per timed phase
}

func newLayerTable() *layerTable { return &layerTable{vals: map[string]float64{}} }

func (t *layerTable) add(name string, v float64) { t.vals[name] += v }
func (t *layerTable) set(name string, v float64) { t.vals[name] = v }
func (t *layerTable) max(name string, v float64) {
	if v > t.vals[name] {
		t.vals[name] = v
	}
}

// phaseProbe brackets a timed phase in a traced run: the CPU profile,
// process CPU time from getrusage, and the runtime's GC and allocation
// counters.
type phaseProbe struct {
	b      *bench
	buf    bytes.Buffer
	cpu0   time.Duration
	rt0    []metrics.Sample
	active bool
}

var rtMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startPhase opens a timed phase: it first collects the garbage earlier
// steps left, so no phase pays for another's, then begins profiling in
// traced runs.
func (b *bench) startPhase() (*phaseProbe, error) {
	runtime.GC()
	p := &phaseProbe{b: b}
	if !b.trace {
		return p, nil
	}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	p.active = true
	p.rt0 = readRuntime()
	p.cpu0 = processCPU()
	return p, nil
}

// stop ends the phase, charges profile samples to modules, and returns
// the profile's sampled CPU time and getrusage's CPU time for the phase.
func (p *phaseProbe) stop() (sampled, rusage time.Duration, err error) {
	if !p.active {
		return 0, 0, nil
	}
	p.active = false
	pprof.StopCPUProfile()
	rusage = processCPU() - p.cpu0
	rt1 := readRuntime()
	t := p.b.layers
	t.add("runtime.gc_s", rt1[0].Value.Float64()-p.rt0[0].Value.Float64())
	t.add("runtime.mallocs", float64(rt1[1].Value.Uint64()-p.rt0[1].Value.Uint64()))
	t.add("runtime.gc_cycles", float64(rt1[2].Value.Uint64()-p.rt0[2].Value.Uint64()))
	t.profs = append(t.profs, p.buf.Bytes())
	samples, nanos, err := profileModules(p.buf.Bytes())
	if err != nil {
		return 0, 0, fmt.Errorf("reading CPU profile: %w", err)
	}
	for mod, n := range samples {
		t.add(strings.ReplaceAll(mod, "/", ".")+".self_samples", float64(n))
		sampled += time.Duration(nanos[mod])
	}
	return sampled, rusage, nil
}

// timed runs fn, adding its wall time to a layer metric in traced runs.
func (b *bench) timed(layer string, fn func()) {
	if !b.trace {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	b.layers.add(layer, time.Since(t0).Seconds())
}

// replayLayers times the collector layers that run on server goroutines,
// each alone through its public function, over the run's own frames read
// back from the WAL in dir (closed): decode-only replay, DecodePayload,
// Store.Deliver into a fresh store, and recovery's store rebuild.
func (b *bench) replayLayers(dir string) error {
	t := b.layers
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	var frames [][]byte
	var scratch fevent.Batch
	t0 := time.Now()
	_, err = w.Replay(func(p []byte) error {
		frames = append(frames, append([]byte(nil), p...))
		return collector.DecodePayload(p, &scratch)
	})
	if err != nil {
		return err
	}
	t.set("wal.replay_s", time.Since(t0).Seconds())

	batches := make([]fevent.Batch, len(frames))
	t0 = time.Now()
	for i, f := range frames {
		if err := collector.DecodePayload(f, &batches[i]); err != nil {
			return err
		}
	}
	t.set("collector.decode_s", time.Since(t0).Seconds())

	// Recovery's rebuild: the snapshot load plus the tail's deliveries.
	store := collector.NewStore()
	t0 = time.Now()
	if snap := w.Snapshot(); snap != nil {
		if err := store.LoadSnapshot(snap); err != nil {
			return err
		}
	}
	for i := range batches {
		store.Deliver(&batches[i])
	}
	t.set("collector.recover.deliver_s", time.Since(t0).Seconds())
	return nil
}

// storeDeliverLayer times Store.Deliver of the run's batches, in send
// order, into a fresh store.
func (b *bench) storeDeliverLayer(batches []*fevent.Batch) {
	store := collector.NewStore()
	t0 := time.Now()
	for _, bt := range batches {
		store.Deliver(bt)
	}
	b.layers.set("collector.store.deliver_s", time.Since(t0).Seconds())
}

// walAloneLayer appends 50-event frames to a fresh WAL at the fixed
// batch rate and times each AppendDurable, giving the log's own
// append-to-durable latency without the network or the store.
func (b *bench) walAloneLayer(payloads [][]byte) error {
	dir := filepath.Join(b.work, "wal-alone")
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	n := batchRate * b.size.walProbeMs / 1000
	interval := time.Second / time.Duration(batchRate)
	lat := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		if err := w.AppendDurable(payloads[i%len(payloads)], false); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(due))/1e6)
	}
	b.layers.set("wal.append_durable_p50_ms", quantile(lat, 0.5))
	return nil
}

// walStats copies the live log's group-commit counters.
func (b *bench) walStats(w *wal.WAL) {
	st := w.Stats()
	b.layers.set("wal.fsyncs", float64(st.Fsyncs))
	if st.Fsyncs > 0 {
		b.layers.set("wal.appends_per_fsync", float64(st.Appends)/float64(st.Fsyncs))
	}
}

// clientStats copies the exporter's queue and retransmit counters.
func (b *bench) clientStats(c *collector.Client) {
	st := c.Stats()
	b.layers.set("collector.client.queue_peak", float64(st.HighWater))
	b.layers.set("collector.client.retransmits", float64(st.Retransmits))
}

// checkpoint runs the server's checkpoint, timed in traced runs.
func (b *bench) checkpoint(r *rig) error {
	var err error
	b.timed("collector.checkpoint_s", func() { err = r.srv.Checkpoint() })
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// snapshotLayer reports the size of the newest snapshot in dir.
func (b *bench) snapshotLayer(dir string) error {
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		return err
	}
	sort.Strings(snaps)
	info, err := os.Stat(snaps[len(snaps)-1])
	if err != nil {
		return err
	}
	b.layers.set("collector.snapshot_bytes", float64(info.Size()))
	return nil
}

// resultsPath is where an untraced run leaves its end-to-end metrics, so
// a traced run of the same workload, seed and size can report its
// overhead.
func (b *bench) resultsPath() string {
	return filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-%ds.json", b.workload, b.seed, b.size.seconds))
}

func saveUntraced(b *bench) error {
	data, err := json.Marshal(b.res.Metrics)
	if err != nil {
		return err
	}
	path := b.resultsPath()
	mkdir(filepath.Dir(path))
	return os.WriteFile(path, data, 0o644)
}

// finishTrace writes the traced run's artifacts (layer table, CPU
// profile, spans), prints the table and the tracing overhead against the
// last untraced run of the same workload and seed, and replaces the
// result's metrics with the per-layer set.
func (b *bench) finishTrace() error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer table: workload=%s seed=%d\n", b.workload, b.seed)
	names := make([]string, 0, len(b.layers.vals))
	for n := range b.layers.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-36s %14.6g\n", n, b.layers.vals[n])
	}
	if data, err := os.ReadFile(b.resultsPath()); err == nil {
		var base map[string]metric
		if json.Unmarshal(data, &base) == nil {
			fmt.Fprintf(&sb, "tracing overhead against the untraced run (traced/untraced - 1):\n")
			keys := make([]string, 0, len(base))
			for k := range base {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if m, ok := b.res.Metrics[k]; ok && base[k].Value != 0 {
					fmt.Fprintf(&sb, "  %-20s %8.4g -> %8.4g %-6s %+6.1f%%\n", k, base[k].Value, m.Value, m.Unit, (m.Value/base[k].Value-1)*100)
				}
			}
		}
	} else {
		fmt.Fprintf(&sb, "no untraced run of this workload, seed and size yet: tracing overhead not computed\n")
	}
	fmt.Print(sb.String())
	if err := os.WriteFile(filepath.Join(b.artifact, "layers.txt"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	for i, prof := range b.layers.profs {
		if err := os.WriteFile(filepath.Join(b.artifact, fmt.Sprintf("cpu-%d.pprof", i)), prof, 0o644); err != nil {
			return err
		}
	}
	if err := b.spans.write(filepath.Join(b.artifact, "spans.jsonl")); err != nil {
		return err
	}
	b.res.Metrics = map[string]metric{}
	for _, s := range layerSpecs {
		b.set(s.name, b.layers.vals[s.name], s.unit)
	}
	return nil
}
