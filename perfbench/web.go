package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"netseer/internal/collector"
	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/experiments"
	"netseer/internal/fevent"
	"netseer/internal/host"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/sketch"
	"netseer/internal/workload"
)

// exportSink stands where a switch CPU hands batches to its exporter: it
// tallies what each switch exports, before the wire, then passes the batch
// to the collector.Client.
type exportSink struct {
	b     *bench
	r     *rig
	tally map[swType]int // this round's events per (switch, type)
	sent  []*fevent.Batch
	due   []int64 // hand-over time per batch
	seqs  []uint64
}

func (s *exportSink) Deliver(bt *fevent.Batch) {
	for i := range bt.Events {
		e := &bt.Events[i]
		s.tally[swType{e.SwitchID, e.Type}]++
	}
	now := time.Now().UnixNano()
	s.b.timed("collector.client.deliver_s", func() { s.r.client.Deliver(bt) })
	s.r.acks.delivered(bt.Seq)
	s.sent = append(s.sent, bt)
	s.due = append(s.due, now)
	s.seqs = append(s.seqs, bt.Seq)
}

// webTestbed builds the fat-tree testbed for one round: WEB at 70% load
// with the link-loss, blackhole and incast faults and the sketch stage
// (sized as netsim sizes it), every switch exporting into sink.
func webTestbed(seed uint64, windowMs float64, sink core.EventSink) *experiments.Testbed {
	cfg := experiments.RunConfig{
		Dist: workload.WEB, Load: 0.7, Seed: seed,
		Window:         sim.Time(windowMs * float64(sim.Millisecond)),
		InjectLinkLoss: true, InjectPipelineBug: true, InjectIncast: true,
	}
	cfg.NSCfg.Sketch = true
	cfg.NSCfg.SketchCfg = sketch.Config{HHThresholdPkts: 32, SpikeBytes: 32 << 10}
	tb := experiments.NewTestbed(cfg)
	tb.Fab.EachSwitch(func(sw *dataplane.Switch) {
		tb.NetSeers = append(tb.NetSeers, core.Attach(sw, tb.Cfg.NSCfg, sink))
	})
	// The blackhole (window/4 to window/2) only drops what is sent to its
	// victim meanwhile; on some seeds the generator sends nothing then, so
	// a short probe burst guarantees the ToR has no-route drops to report.
	// It leaves from a server, whose NIC has no generated traffic queued.
	src, victim := tb.Hosts[tb.Cfg.Clients], tb.Hosts[len(tb.Hosts)-1]
	tb.Sim.Schedule(3*cfg.Window/8, func() { src.SendUDP(probeFlow(src, victim), 8, 724, 0) })
	return tb
}

func probeFlow(src, dst *host.Host) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 47999, DstPort: workload.DataPort, Proto: pkt.ProtoUDP}
}

// runWeb: whole simulation rounds of the fat-tree testbed, each switch
// exporting over TCP into the durable collector while the simulation
// runs. A round is timed from sim start until the collector has acked
// the last exported batch.
func runWeb(b *bench) error {
	sz := b.size
	dir := filepath.Join(b.work, "wal")
	r, err := openRig(dir)
	if err != nil {
		return err
	}
	sink := &exportSink{b: b, r: r}
	// Each round simulates its own seed, drawn from the run's, so one run
	// averages over several traffic draws.
	tbs := make([]*experiments.Testbed, sz.rounds)
	for i := range tbs {
		tbs[i] = webTestbed(b.seed*1000+uint64(i), sz.windowMs, sink)
	}
	b.setupDone()

	var elapsed, sampled, rusage time.Duration
	var pkts uint64
	for round, tb := range tbs {
		tbs[round] = nil // free each round's simulator once it is done
		sink.tally = map[swType]int{}
		before := r.store.Len()
		if b.trace {
			for i := 1; i <= 100; i++ {
				tb.Sim.Schedule(tb.Cfg.Window*sim.Time(i)/100, func() {
					b.layers.max("sim.pending_peak", float64(tb.Sim.Pending()))
				})
			}
		}
		probe, err := b.startPhase()
		if err != nil {
			r.close()
			return err
		}
		id := b.spans.begin(fmt.Sprintf("round.%d", round), -1)
		b.heap.measure(true)
		t0 := time.Now()
		tb.Run()
		b.timed("collector.client.flush_wait_s", func() { err = r.client.Flush() })
		elapsed += time.Since(t0)
		b.heap.measure(false)
		b.spans.end(id)
		s, u, perr := probe.stop()
		sampled, rusage = sampled+s, rusage+u
		if err == nil {
			err = perr
		}
		if err != nil {
			r.close()
			return err
		}
		var st core.Stats
		var lost uint64 // event packets lost to capacity
		for _, ns := range tb.NetSeers {
			s := ns.Stats()
			st.RawPackets += s.RawPackets
			st.ExportedEvents += s.ExportedEvents
			st.SuppressedFPs += s.SuppressedFPs
			lost += s.LostMMURedirect + s.LostInternalPort + s.LostRingOverwrite + s.LostStackOverflow
			if b.trace {
				_, _, _, ev := ns.TableStats()
				_, of, _, _, _ := ns.BatchStats()
				b.layers.add("groupcache.evictions", float64(ev))
				b.layers.add("batcher.overflow", float64(of))
			}
		}
		pkts += st.RawPackets
		if b.trace {
			b.layers.add("sim.events", float64(tb.Sim.Processed()))
			b.layers.add("dataplane.pkts", float64(st.RawPackets))
			b.layers.add("core.exported_events", float64(st.ExportedEvents))
			b.layers.add("core.lost_event_pkts", float64(lost))
			b.layers.add("fpelim.suppressed", float64(st.SuppressedFPs))
		}
		b.checkRound(tb, r.store.Query(collector.Filter{})[before:], sink.tally, lost)
		if round == 0 {
			if err := b.checkpoint(r); err != nil {
				r.close()
				return err
			}
		}
	}

	b.set("work_per_s", float64(pkts)/elapsed.Seconds(), "1/s")
	lat, missing := latencyStats(sink.due, r.acks.ackTimes(sink.seqs))
	b.ackMetrics(lat, -1)
	b.res.Attempted = int64(len(sink.seqs))
	b.res.Failed = int64(missing)
	if err := b.diskMetric(dir, r.store.Len()); err != nil {
		r.close()
		return err
	}
	b.checkStore(r, sink.sent)
	if b.trace {
		fmt.Printf("web: profile CPU %.3fs, getrusage CPU %.3fs over the simulation rounds (%+.1f%%)\n",
			sampled.Seconds(), rusage.Seconds(), (sampled.Seconds()/rusage.Seconds()-1)*100)
		if d := sampled.Seconds()/rusage.Seconds() - 1; d > 0.1 || d < -0.1 {
			fmt.Fprintln(os.Stderr, "perfbench: profile and getrusage CPU time differ by more than 10%")
		}
		if err := b.collectorLayers(r, sink.sent); err != nil {
			r.close()
			return err
		}
	}
	return b.closeAndRecover(r, sink.sent, 5)
}

// checkRound holds one round's outputs against references the program
// does not compute: per-(switch, type) conservation across the wire,
// ground-truth completeness up to the capacity losses the switches
// counted, and the blackholed host's no-route drops at its ToR.
func (b *bench) checkRound(tb *experiments.Testbed, stored []fevent.Event, exported map[swType]int, lost uint64) {
	for _, d := range diffTallies(tallyEvents(stored), exported) {
		b.fail("collector vs exporter: %s", d)
	}
	have := make(map[dataplane.FlowEventKey]bool, len(stored))
	for i := range stored {
		e := &stored[i]
		k := dataplane.FlowEventKey{SwitchID: e.SwitchID, Type: e.Type, Flow: e.Flow}
		switch e.Type {
		case fevent.TypeDrop:
			k.Code = e.DropCode
		case fevent.TypePathChange:
			k.In, k.Out = e.IngressPort, e.EgressPort
		}
		have[k] = true
	}
	missing := 0
	count := func(truth map[dataplane.FlowEventKey]int) {
		for k := range truth {
			if !have[k] {
				missing++
			}
		}
	}
	// NetSeer cannot see failed-ASIC/MMU drops by design, and aggregates
	// ACL drops per rule rather than per flow.
	count(tb.GT.DropFlowEvents(func(c fevent.DropCode) bool { return c.IsPipeline() && c != fevent.DropACLDeny }))
	count(tb.GT.CongestionFlowEvents())
	count(tb.GT.PathChangeFlowEvents(false))
	if uint64(missing) > lost {
		b.fail("%d ground-truth flow events missing from the collector, only %d event packets lost to capacity", missing, lost)
	}
	victim := tb.Hosts[len(tb.Hosts)-1]
	tor := tb.Fab.HostPorts[victim.Node.ID][0].Switch
	probe := probeFlow(tb.Hosts[tb.Cfg.Clients], victim)
	if !have[dataplane.FlowEventKey{SwitchID: tor.ID, Type: fevent.TypeDrop, Flow: probe, Code: fevent.DropNoRoute}] {
		b.fail("no no-route drop of the probe flow toward the blackholed host at its ToR (switch %d)", tor.ID)
	}
}
