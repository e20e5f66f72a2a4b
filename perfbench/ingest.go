package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"netseer/internal/collector"
	"netseer/internal/fevent"
)

// fixedRun is the outcome of an open-loop fixed-rate export phase.
type fixedRun struct {
	lat     []float64 // ms from each batch's scheduled send to its ack
	missing int       // batches never acked
	sent    int
	lateMs  float64 // worst lag of the generator behind its schedule
	err     error
}

// fixedRate hands batches to the exporter open-loop at the fixed batch
// rate until they run out or stop closes, then waits for every ack. Each
// batch is timed from when it was due, so a stall also counts against
// the batches queued behind it.
func (b *bench) fixedRate(r *rig, batches []*fevent.Batch, sent *atomic.Int64, stop <-chan struct{}) fixedRun {
	var fr fixedRun
	interval := time.Second / time.Duration(batchRate)
	due := make([]int64, 0, len(batches))
	seqs := make([]uint64, 0, len(batches))
	start := time.Now()
	for i, bt := range batches {
		at := start.Add(time.Duration(i) * interval)
		if !waitUntil(at, stop) {
			break
		}
		fr.lateMs = max(fr.lateMs, float64(time.Since(at))/1e6)
		sent.Add(1)
		b.timed("collector.client.deliver_s", func() { r.client.Deliver(bt) })
		r.acks.delivered(bt.Seq)
		due = append(due, at.UnixNano())
		seqs = append(seqs, bt.Seq)
	}
	b.timed("collector.client.flush_wait_s", func() { fr.err = r.client.Flush() })
	fr.sent = len(seqs)
	fr.lat, fr.missing = latencyStats(due, r.acks.ackTimes(seqs))
	return fr
}

// waitUntil sleeps until t, or reports false once stop is closed.
func waitUntil(t time.Time, stop <-chan struct{}) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-stop:
		return false
	case <-timer.C:
		return true
	}
}

// saturate hands batches to the exporter as fast as acks allow and
// returns once the last is acked, checkpointing the server once when
// checkpointAt events have been handed over (0: never). The checkpoint
// waits for every ack first: a checkpoint while acks are still owed can
// strand the server's ack loop in WAL.WaitDurable (see CHANGES.md).
func (b *bench) saturate(r *rig, batches []*fevent.Batch, checkpointAt int) (time.Duration, error) {
	var err error
	events := 0
	start := time.Now()
	for _, bt := range batches {
		b.timed("collector.client.flush_wait_s", func() { r.acks.waitBelow(window) })
		b.timed("collector.client.deliver_s", func() { r.client.Deliver(bt) })
		r.acks.delivered(bt.Seq)
		events += len(bt.Events)
		if checkpointAt > 0 && events >= checkpointAt {
			checkpointAt = 0
			if b.timed("collector.client.flush_wait_s", func() { err = r.client.Flush() }); err != nil {
				return 0, err
			}
			if err := b.checkpoint(r); err != nil {
				return 0, err
			}
		}
	}
	b.timed("collector.client.flush_wait_s", func() { err = r.client.Flush() })
	return time.Since(start), err
}

// ackMetrics reports the exporter's ack latency median and 99th
// percentile (a phase has thousands of samples, so more than ten lie
// beyond the 99th). They vary with the shared disk's fsync latency from
// minute to minute, too much to bound, so they are per-layer metrics,
// and untraced runs print them as reference figures.
// lateMs is how far the fixed-rate generator fell behind its schedule at
// worst (negative where batches are not scheduled).
func (b *bench) ackMetrics(lat []float64, lateMs float64) {
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	if b.trace {
		b.layers.set("ack_p50_ms", p50)
		b.layers.set("ack_p99_ms", p99)
		return
	}
	fmt.Printf("%s: ack latency p50 %.3f ms, p99 %.3f ms over %d batches", b.workload, p50, p99, len(lat))
	if lateMs >= 0 {
		fmt.Printf("; generator at most %.3f ms behind schedule", lateMs)
	}
	fmt.Println()
}

// diskMetric reports the WAL segments and snapshots on disk per stored
// event.
func (b *bench) diskMetric(dir string, events int) error {
	n, err := diskBytes(dir)
	if err != nil {
		return err
	}
	b.set("disk_b_per_event", float64(n)/float64(events), "B")
	return nil
}

// closeAndRecover shuts the live rig down, then recovers its store from
// the WAL recoveries times, checking each, and reports the median
// recovery time per recovered event.
func (b *bench) closeAndRecover(r *rig, sent []*fevent.Batch, recoveries int) error {
	if err := r.close(); err != nil {
		return fmt.Errorf("closing collector: %w", err)
	}
	var per []float64
	for i := 0; i < recoveries; i++ {
		took, err := b.recoverChecked(r.dir, sent, i == recoveries-1)
		if err != nil {
			return err
		}
		per = append(per, took.Seconds()*1e6/float64(countEvents(sent)))
	}
	b.recoverMetric(per)
	return nil
}

// recoverMetric reports the median recovery time per recovered event:
// WAL open plus RecoverStore until the store answers. A recovery lasts
// from tens of ms (web) to under a second, short enough that the shared
// host's load moves its median across runs by more than any bound, so it
// is a per-layer metric, and untraced runs print it.
func (b *bench) recoverMetric(per []float64) {
	us := quantile(per, 0.5)
	if b.trace {
		b.layers.set("recover_us_per_event", us)
		return
	}
	fmt.Printf("%s: recovery %.4f us per event, median of %d\n", b.workload, us, len(per))
}

func countEvents(bs []*fevent.Batch) int {
	n := 0
	for _, b := range bs {
		n += len(b.Events)
	}
	return n
}

// checkStore compares the live store with the batches handed to the
// exporter: the order-independent digest, per-(switch, type) counts, no
// duplicate batches and no batch dropped by the client.
func (b *bench) checkStore(r *rig, sent []*fevent.Batch) {
	want := digestBatches(sent)
	stored := r.store.Query(collector.Filter{})
	if got := digestEvents(stored); got != want {
		b.fail("live store digest %+v, want %+v", got, want)
	}
	var wantEv []fevent.Event
	for _, bt := range sent {
		wantEv = append(wantEv, bt.Events...)
	}
	for _, d := range diffTallies(tallyEvents(stored), tallyEvents(wantEv)) {
		b.fail("live store: %s", d)
	}
	if n := r.store.DupBatches(); n != 0 {
		b.fail("%d duplicate batches on a clean run", n)
	}
	if n := r.client.Stats().DroppedBatches; n != 0 {
		b.fail("exporter dropped %d batches", n)
	}
}

// collectorLayers fills the traced run's collector rows that come from
// the live rig and from replaying its batches.
func (b *bench) collectorLayers(r *rig, sent []*fevent.Batch) error {
	if err := b.snapshotLayer(r.dir); err != nil {
		return err
	}
	b.walStats(r.wal)
	b.clientStats(r.client)
	b.layers.set("collector.store.memory_bytes", float64(r.store.MemoryBytes()))
	b.storeDeliverLayer(sent)
	payloads := make([][]byte, 0, 64)
	for _, bt := range sent[:min(64, len(sent))] {
		p := binary.BigEndian.AppendUint64(nil, bt.Seq)
		p, err := bt.AppendTo(p)
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	return b.walAloneLayer(payloads)
}

// recoverChecked reopens the closed WAL in dir, recovers the store and
// checks it against the batches sent, returning the recovery time. With
// layers set, traced runs then replay the log layer by layer and probe
// the recovered store with the query mix.
func (b *bench) recoverChecked(dir string, sent []*fevent.Batch, layers bool) (time.Duration, error) {
	runtime.GC() // the last store's garbage is not recovery's to carry
	b.heap.measure(true)
	store, took, err := recoverRig(dir)
	b.heap.measure(false)
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	if got, want := digestEvents(store.Query(collector.Filter{})), digestBatches(sent); got != want {
		b.fail("recovered store digest %+v, want %+v", got, want)
	}
	if !b.trace || !layers {
		return took, nil
	}
	if err := b.replayLayers(dir); err != nil {
		return 0, err
	}
	if b.workload != "query" {
		return took, b.queryProbe(store, sent)
	}
	return took, nil
}

// queryProbe runs a short pass of the query mix against a store with no
// concurrent writes, so every traced run reports per-verb latency.
func (b *bench) queryProbe(store *collector.Store, sent []*fevent.Batch) error {
	qs, err := collector.NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer qs.Close()
	op, err := dialOperator(qs.Addr())
	if err != nil {
		return err
	}
	defer op.conn.Close()
	var plan []query
	var per [numVerbs]int
	for _, q := range planQueries(b.seed, &stream{batches: sent}) {
		if per[q.verb] < b.size.probeEach {
			per[q.verb]++
			plan = append(plan, q)
		}
	}
	ans, err := b.runMix(op, plan, 1, 0, nil, b.spans.begin("phase.query_probe", -1))
	if err != nil {
		return err
	}
	b.verbLayers(ans)
	return nil
}

// ingestReps is how many identical passes an ingest run makes; its
// figures are the medians over them, so one stall of the shared machine
// moves one pass, not the result.
const ingestReps = 3

// runIngest: the generated stream goes over loopback TCP to a fresh
// durable collector, first at the fixed rate (ack latency), then as fast
// as acks allow with one checkpoint half-way (throughput); then the
// collector is closed and its store recovered from the WAL. Each of the
// ingestReps passes does all of this.
func runIngest(b *bench) error {
	sz := b.size
	s := genStream(b.seed, sz.events, 0, false)
	nFixed := min(int(sz.fixedSec*float64(batchRate))/ingestReps, len(s.batches)/2)
	fixed, sat := s.batches[:nFixed], s.batches[nFixed:]
	satEvents := countEvents(sat)
	r, err := openRig(filepath.Join(b.work, "wal0"))
	if err != nil {
		return err
	}
	b.setupDone()

	var rates, lat, recover, disk []float64
	late := 0.0
	for rep := 0; rep < ingestReps; rep++ {
		if rep > 0 {
			if r, err = openRig(filepath.Join(b.work, fmt.Sprintf("wal%d", rep))); err != nil {
				return err
			}
		}
		probe, err := b.startPhase()
		if err != nil {
			r.close()
			return err
		}
		b.heap.measure(true)
		var sent atomic.Int64
		id := b.spans.begin(fmt.Sprintf("rep.%d.fixed_rate", rep), -1)
		fr := b.fixedRate(r, fixed, &sent, nil)
		b.spans.end(id)
		id = b.spans.begin(fmt.Sprintf("rep.%d.saturation", rep), -1)
		took, err := b.saturate(r, sat, satEvents/2)
		b.spans.end(id)
		b.heap.measure(false)
		if _, _, perr := probe.stop(); perr != nil && err == nil {
			err = perr
		}
		if err == nil {
			err = fr.err
		}
		if err != nil {
			r.close()
			return err
		}
		rates = append(rates, float64(satEvents)/took.Seconds())
		lat = append(lat, fr.lat...)
		late = max(late, fr.lateMs)
		b.res.Attempted += int64(len(s.batches))
		b.res.Failed += int64(fr.missing)
		n, err := diskBytes(r.dir)
		if err != nil {
			r.close()
			return err
		}
		disk = append(disk, float64(n)/float64(s.events))
		b.checkStore(r, s.batches)
		if b.trace && rep == ingestReps-1 {
			if err := b.collectorLayers(r, s.batches); err != nil {
				r.close()
				return err
			}
		}
		if err := r.close(); err != nil {
			return fmt.Errorf("closing collector: %w", err)
		}
		took, err = b.recoverChecked(r.dir, s.batches, rep == ingestReps-1)
		if err != nil {
			return err
		}
		recover = append(recover, took.Seconds()*1e6/float64(s.events))
	}
	b.set("work_per_s", quantile(rates, 0.5), "1/s")
	b.ackMetrics(lat, late)
	b.set("disk_b_per_event", quantile(disk, 0.5), "B")
	b.recoverMetric(recover)
	return nil
}
