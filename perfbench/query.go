package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netseer/internal/collector"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
)

// Query verbs of the mix, in per-layer metric order.
const (
	vFlow = iota
	vPath
	vSwitch
	vType
	vWindow
	vSummary
	numVerbs
)

var verbNames = [numVerbs]string{"flow", "path", "switch", "type", "window", "summary"}

// mixWeights is one cycle of the operator's query mix: exactly this
// many queries of each verb, in a seeded order. Point lookups (a flow's
// events, its path) dominate, as in the paper's troubleshooting cases;
// device and type counts and time windows are the broader scans; one
// summary per cycle is the operator's overview, rare because it scans
// every event under the store's lock. Counts visit every switch and every
// type equally often, so a cycle's cost does not depend on the seed.
var mixWeights = [numVerbs]int{vFlow: 598, vPath: 300, vSwitch: 40, vType: 12, vWindow: 49, vSummary: 1}

// query is one line-protocol request of the plan.
type query struct {
	verb int
	line string
	f    collector.Filter
}

// windowSpan is the time window queries cover: 20 batches of the stream.
const windowSpan = 20 * batchGap

// planQueries lays out one cycle of the mix over the preloaded stream.
func planQueries(seed uint64, pre *stream) []query {
	r := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	pick := func(want fevent.Type) pkt.FlowKey {
		for {
			bt := pre.batches[r.Intn(len(pre.batches))]
			e := &bt.Events[r.Intn(len(bt.Events))]
			if e.Type != fevent.TypeAggSpike && (want == 0 || e.Type == want) {
				return e.Flow
			}
		}
	}
	var out []query
	for v, n := range mixWeights {
		for i := 0; i < n; i++ {
			q := query{verb: v}
			switch v {
			case vFlow:
				fl := pick(0)
				q.f.Flow = &fl
				q.line = "query flow=" + flowArg(fl)
			case vPath:
				fl := pick(fevent.TypePathChange)
				q.f.Flow = &fl
				q.line = "path flow=" + flowArg(fl)
			case vSwitch:
				id := uint16(i % numSwitches)
				q.f.SwitchID = &id
				q.line = fmt.Sprintf("count switch=%d", id)
			case vType:
				q.f.Type = typeMix[i%len(typeMix)].t
				q.line = "count type=" + q.f.Type.String()
			case vWindow:
				// Windows end inside the stream, before any later writes.
				last := pre.batches[len(pre.batches)-1].Timestamp
				since := pre.batches[r.Intn(len(pre.batches))].Timestamp
				for since+windowSpan > last && since > pre.batches[0].Timestamp {
					since = pre.batches[r.Intn(len(pre.batches))].Timestamp
				}
				q.f.Since, q.f.Until = since, since+windowSpan
				q.line = fmt.Sprintf("query since=%d until=%d", q.f.Since, q.f.Until)
			case vSummary:
				q.line = "summary"
			}
			out = append(out, q)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func flowArg(k pkt.FlowKey) string {
	return fmt.Sprintf("tcp:%s:%d:%s:%d", pkt.IPString(k.SrcIP), k.SrcPort, pkt.IPString(k.DstIP), k.DstPort)
}

// answer is one query's outcome as the operator saw it. lo and hi bound
// how many live-stream batches the store could hold when it answered:
// those acked before the request was sent, and those handed to the
// exporter before the reply was read.
type answer struct {
	q      *query
	ms     float64
	reply  reply
	lo, hi int
}

// reply is a query's reply: its row count and an order-sensitive hash of
// the rows, and the rows themselves only for the verbs whose rows the
// check parses (counts and summary), so long replies cost no memory.
type reply struct {
	rows  int
	hash  uint64
	lines []string
}

func (r *reply) add(row []byte, keep bool) {
	r.rows++
	r.hash = fnvAdd(fnvAdd(r.hash, row), []byte{'\n'})
	if keep {
		r.lines = append(r.lines, string(row))
	}
}

const fnvOffset = 14695981039346656037

func fnvAdd(h uint64, b []byte) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func replyOf(rows []string) reply {
	var r reply
	for _, l := range rows {
		r.add([]byte(l), false)
	}
	return r
}

// operator is the one query connection.
type operator struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialOperator(addr string) (*operator, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &operator{conn: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriter(c)}, nil
}

// ask sends one request and reads its reply rows up to the "." line,
// keeping the rows themselves if keep is set.
func (o *operator) ask(line string, keep bool) (reply, error) {
	var r reply
	o.w.WriteString(line)
	o.w.WriteByte('\n')
	if err := o.w.Flush(); err != nil {
		return r, err
	}
	for {
		l, err := o.r.ReadSlice('\n')
		if err != nil {
			return r, err
		}
		l = l[:len(l)-1]
		if len(l) == 1 && l[0] == '.' {
			return r, nil
		}
		r.add(l, keep)
	}
}

// liveBounds maps the exporter's progress to answer bounds. firstSeq is
// the first live batch's sequence number; nil means no live stream.
type liveBounds struct {
	acks     *ackLog
	firstSeq uint64
	sent     *atomic.Int64
	n        int
}

func (lb *liveBounds) acked() int {
	if lb == nil {
		return 0
	}
	last := lb.acks.last.Load()
	if last < lb.firstSeq {
		return 0
	}
	return min(int(last-lb.firstSeq+1), lb.n)
}

func (lb *liveBounds) handed() int {
	if lb == nil {
		return 0
	}
	return int(lb.sent.Load())
}

// runMix runs whole cycles of the plan closed-loop, at least cycles
// times and until minDur has passed, under the span parent, which it
// closes.
func (b *bench) runMix(o *operator, plan []query, cycles int, minDur time.Duration, lb *liveBounds, parent int) ([]answer, error) {
	defer b.spans.end(parent)
	var out []answer
	start := time.Now()
	for c := 0; c < cycles || time.Since(start) < minDur; c++ {
		for i := range plan {
			q := &plan[i]
			lo := lb.acked()
			id := b.spans.begin("query."+verbNames[q.verb], parent)
			t0 := time.Now()
			rep, err := o.ask(q.line, q.verb >= vSwitch && q.verb != vWindow)
			ms := float64(time.Since(t0)) / 1e6
			b.spans.end(id)
			if err != nil {
				return nil, fmt.Errorf("query %q: %w", q.line, err)
			}
			out = append(out, answer{q: q, ms: ms, reply: rep, lo: lo, hi: lb.handed()})
		}
	}
	return out, nil
}

// verbLayers reports each verb's median latency and the rows returned.
func (b *bench) verbLayers(ans []answer) {
	var lat [numVerbs][]float64
	rows := 0
	for _, a := range ans {
		lat[a.q.verb] = append(lat[a.q.verb], a.ms)
		rows += a.reply.rows
	}
	for v := range lat {
		b.layers.set("collector.query."+verbNames[v]+"_ms", quantile(lat[v], 0.5))
	}
	b.layers.set("collector.query.rows", float64(rows))
}

// reference is the benchmark's own copy of the stored events with the
// indexes its brute-force checks need. Preloaded events answer exactly;
// the live stream (every event its own flow, stamped after the preload)
// only moves counts, by amounts bounded per answer.
type reference struct {
	pre    []fevent.Event
	byFlow map[pkt.FlowKey][]int32
	// preST counts preloaded events and distinct flows per (switch, type).
	preST      map[swType]int
	preSTFlows map[swType]int
	// liveST[i] counts events of the first i live batches per (switch, type).
	liveST []stCounts
}

// stCounts counts events per (switch, type), indexed by stIndex.
type stCounts [numSwitches * 8]int32

func stIndex(k swType) int { return int(k.sw)*8 + int(k.t) }

func newReference(pre *stream, live []*fevent.Batch) *reference {
	ref := &reference{byFlow: map[pkt.FlowKey][]int32{}, preST: map[swType]int{}, preSTFlows: map[swType]int{}}
	ref.pre = make([]fevent.Event, 0, pre.events)
	seen := map[swType]map[pkt.FlowKey]bool{}
	for _, bt := range pre.batches {
		for i := range bt.Events {
			e := bt.Events[i]
			ref.byFlow[e.Flow] = append(ref.byFlow[e.Flow], int32(len(ref.pre)))
			ref.pre = append(ref.pre, e)
			k := swType{e.SwitchID, e.Type}
			ref.preST[k]++
			if seen[k] == nil {
				seen[k] = map[pkt.FlowKey]bool{}
			}
			seen[k][e.Flow] = true
		}
	}
	for k, fl := range seen {
		ref.preSTFlows[k] = len(fl)
	}
	ref.liveST = make([]stCounts, 1, len(live)+1)
	for _, bt := range live {
		cur := ref.liveST[len(ref.liveST)-1]
		for i := range bt.Events {
			cur[stIndex(swType{bt.Events[i].SwitchID, bt.Events[i].Type})]++
		}
		ref.liveST = append(ref.liveST, cur)
	}
	return ref
}

// liveIn sums live events of the first n batches over keys match accepts.
func (ref *reference) liveIn(n int, match func(swType) bool) int {
	s := 0
	for sw := uint16(0); sw < numSwitches; sw++ {
		for _, t := range fevent.Types {
			if k := (swType{sw, t}); match(k) {
				s += int(ref.liveST[n][stIndex(k)])
			}
		}
	}
	return s
}

func render(e *fevent.Event) string { return fmt.Sprintf("%v t=%v", e, e.Timestamp) }

// check compares one answer with the reference; it returns a description
// of the first difference, or "".
func (ref *reference) check(a *answer) string {
	q := a.q
	switch q.verb {
	case vFlow:
		var want []string
		for _, i := range ref.byFlow[*q.f.Flow] {
			want = append(want, render(&ref.pre[i]))
		}
		return sameRows(a.reply, want)
	case vWindow:
		lo := sort.Search(len(ref.pre), func(i int) bool { return ref.pre[i].Timestamp >= q.f.Since })
		var want []string
		for i := lo; i < len(ref.pre) && ref.pre[i].Timestamp <= q.f.Until; i++ {
			want = append(want, render(&ref.pre[i]))
		}
		return sameRows(a.reply, want)
	case vPath:
		latest := map[uint16]*fevent.Event{}
		for _, i := range ref.byFlow[*q.f.Flow] {
			e := &ref.pre[i]
			if prev := latest[e.SwitchID]; e.Type == fevent.TypePathChange && (prev == nil || e.Timestamp >= prev.Timestamp) {
				latest[e.SwitchID] = e
			}
		}
		hops := make([]*fevent.Event, 0, len(latest))
		for _, e := range latest {
			hops = append(hops, e)
		}
		sort.Slice(hops, func(i, j int) bool {
			if hops[i].Timestamp != hops[j].Timestamp {
				return hops[i].Timestamp < hops[j].Timestamp
			}
			return hops[i].SwitchID < hops[j].SwitchID
		})
		var want []string
		for _, e := range hops {
			want = append(want, fmt.Sprintf("switch=%d in=%d out=%d t=%v", e.SwitchID, e.IngressPort, e.EgressPort, e.Timestamp))
		}
		return sameRows(a.reply, want)
	case vSwitch, vType:
		match := func(k swType) bool {
			if q.verb == vSwitch {
				return k.sw == *q.f.SwitchID
			}
			return k.t == q.f.Type
		}
		var got, pre, lo, hi int
		if len(a.reply.lines) != 1 {
			return fmt.Sprintf("%d reply lines", len(a.reply.lines))
		}
		if _, err := fmt.Sscanf(a.reply.lines[0], "%d", &got); err != nil {
			return err.Error()
		}
		for k, n := range ref.preST {
			if match(k) {
				pre += n
			}
		}
		lo, hi = ref.liveIn(a.lo, match), ref.liveIn(a.hi, match)
		if got < pre+lo || got > pre+hi {
			return fmt.Sprintf("count %d outside [%d, %d]", got, pre+lo, pre+hi)
		}
	case vSummary:
		rows := map[swType][2]int{}
		for _, l := range a.reply.lines {
			var s uint16
			var t string
			var ev, fl int
			if _, err := fmt.Sscanf(l, "switch=%d type=%s events=%d flows=%d", &s, &t, &ev, &fl); err != nil {
				return fmt.Sprintf("row %q: %v", l, err)
			}
			k := swType{s, typeByName(t)}
			rows[k] = [2]int{ev, fl}
		}
		for k, n := range ref.preST {
			if _, ok := rows[k]; !ok && n > 0 {
				return fmt.Sprintf("no row for switch %d %s", k.sw, k.t)
			}
		}
		for k, row := range rows {
			if k.sw >= numSwitches || !k.t.Valid() {
				return fmt.Sprintf("row for unknown switch %d type %d", k.sw, k.t)
			}
			i := stIndex(k)
			pre, lo, hi := ref.preST[k], int(ref.liveST[a.lo][i]), int(ref.liveST[a.hi][i])
			if row[0] < pre+lo || row[0] > pre+hi {
				return fmt.Sprintf("switch %d %s: %d events outside [%d, %d]", k.sw, k.t, row[0], pre+lo, pre+hi)
			}
			// Live events each carry a new flow, except agg-spike events,
			// which all carry the zero flow.
			live := row[0] - pre
			wantFlows := ref.preSTFlows[k] + live
			if k.t == fevent.TypeAggSpike {
				wantFlows = max(ref.preSTFlows[k], min(live, 1))
			}
			if row[1] != wantFlows {
				return fmt.Sprintf("switch %d %s: %d flows, want %d", k.sw, k.t, row[1], wantFlows)
			}
		}
	}
	return ""
}

func typeByName(s string) fevent.Type {
	for _, t := range fevent.Types {
		if t.String() == s {
			return t
		}
	}
	return 0
}

func sameRows(got reply, want []string) string {
	if w := replyOf(want); got.rows != w.rows || got.hash != w.hash {
		return fmt.Sprintf("%d rows (hash %x), want %d rows (hash %x)", got.rows, got.hash, w.rows, w.hash)
	}
	return ""
}

// runQuery: a durable store preloaded with the generated stream answers
// a closed-loop operator's query mix while one exporter ingests at the
// fixed rate: reads beside writes on one store.
func runQuery(b *bench) error {
	sz := b.size
	pre := genStream(b.seed, sz.events, 0, false)
	// The exporter runs as long as the operator's whole cycles do; twice
	// the nominal phase is more than it can use.
	nLive := 2 * int(sz.mixedSec*float64(batchRate))
	live := genStream(b.seed+1, nLive*batchEvents, pre.lastTimestamp()+batchGap, true)
	dir := filepath.Join(b.work, "wal")
	r, err := openRig(dir)
	if err != nil {
		return err
	}
	qs, err := collector.NewQueryServer(r.store, "127.0.0.1:0")
	if err != nil {
		r.close()
		return err
	}
	ans, elapsed, fr, err := b.readsBesideWrites(r, qs.Addr(), pre, live)
	qs.Close()
	if err != nil {
		r.close()
		return err
	}
	live.batches = live.batches[:fr.sent]

	b.set("work_per_s", float64(len(ans))/elapsed.Seconds(), "1/s")
	b.ackMetrics(fr.lat, fr.lateMs)
	b.res.Attempted = int64(len(ans) + fr.sent)
	b.res.Failed = int64(fr.missing)
	if err := b.diskMetric(dir, r.store.Len()); err != nil {
		r.close()
		return err
	}

	ref := newReference(pre, live.batches)
	bad := 0
	for i := range ans {
		if msg := ref.check(&ans[i]); msg != "" {
			if bad++; bad <= 3 {
				b.fail("%s: %s", ans[i].q.line, msg)
			}
		}
	}
	if bad > 3 {
		b.fail("%d of %d answers differ from the reference", bad, len(ans))
	}
	all := append(append([]*fevent.Batch(nil), pre.batches...), live.batches...)
	b.checkStore(r, all)
	if b.trace {
		b.verbLayers(ans)
		if err := b.collectorLayers(r, all); err != nil {
			r.close()
			return err
		}
	}
	return b.closeAndRecover(r, all, 5)
}

// readsBesideWrites preloads the store over the exporter, checkpoints,
// then runs the operator's query mix while the exporter sends the live
// stream at the fixed rate.
func (b *bench) readsBesideWrites(r *rig, addr string, pre, live *stream) ([]answer, time.Duration, fixedRun, error) {
	var fr fixedRun
	for _, bt := range pre.batches {
		r.acks.waitBelow(window)
		r.client.Deliver(bt)
		r.acks.delivered(bt.Seq)
	}
	if err := r.client.Flush(); err != nil {
		return nil, 0, fr, fmt.Errorf("preload: %w", err)
	}
	if err := b.checkpoint(r); err != nil {
		return nil, 0, fr, err
	}
	op, err := dialOperator(addr)
	if err != nil {
		return nil, 0, fr, err
	}
	defer op.conn.Close()
	plan := planQueries(b.seed, pre)
	firstSeq := pre.batches[len(pre.batches)-1].Seq + 1
	b.setupDone()

	probe, err := b.startPhase()
	if err != nil {
		return nil, 0, fr, err
	}
	var liveSent atomic.Int64
	lb := &liveBounds{acks: r.acks, firstSeq: firstSeq, sent: &liveSent, n: len(live.batches)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fr = b.fixedRate(r, live.batches, &liveSent, stop)
	}()
	b.heap.measure(true)
	t0 := time.Now()
	ans, err := b.runMix(op, plan, 1, time.Duration(b.size.mixedSec*float64(time.Second)), lb, b.spans.begin("phase.mixed", -1))
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()
	b.heap.measure(false)
	if _, _, perr := probe.stop(); err == nil {
		err = perr
	}
	if err == nil {
		err = fr.err
	}
	return ans, elapsed, fr, err
}
