package main

import (
	"math/rand"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// The synthetic export stream copies the make-up of what the testbed's
// switches export on a 10 ms WEB run at 70% load with the blackhole,
// incast and link-loss faults and the sketch stage on (seed 1: 31,807
// events from 10 switches over 2,046 flows). Generating the stream instead
// of replaying a simulation keeps the ingest and query workloads' inputs
// fixed when detection changes, and lets them reach 10^6 events.

// typeMix weights event types by their share of that run's export.
var typeMix = []struct {
	t fevent.Type
	w int
}{
	{fevent.TypeDrop, 415},
	{fevent.TypeCongestion, 1705},
	{fevent.TypePathChange, 7942},
	{fevent.TypeHeavyHitter, 11831},
	{fevent.TypeTopKChurn, 8815},
	{fevent.TypeAggSpike, 1099},
}

// dropMix weights the drop reasons the run exported.
var dropMix = []struct {
	c fevent.DropCode
	w int
}{
	{fevent.DropNoRoute, 51},
	{fevent.DropMMUCongestion, 286},
	{fevent.DropInterSwitch, 78},
}

// switchEvents and switchFlows are each testbed switch's exported events
// and distinct flows in that run, indexed by switch ID.
var (
	switchEvents = []int{2507, 1365, 6025, 2772, 9429, 2555, 2365, 1455, 1189, 2145}
	switchFlows  = []int{489, 619, 846, 1069, 1808, 879, 489, 619, 437, 721}
)

const (
	numSwitches = 10
	refEvents   = 31807
	refFlows    = 2046
	batchEvents = fevent.DefaultBatchSize
	// batchGap spaces batch timestamps on the switch clock.
	batchGap = 10 * sim.Microsecond
	// spikeWindow is the sketch window agg-spike events are stamped with.
	spikeWindow = 250 * sim.Microsecond
)

// stream is a generated export stream: batches in send order, each
// holding events exactly as the collector stores them after the wire
// (switch and timestamp from the batch header, only recorded fields set).
type stream struct {
	batches []*fevent.Batch
	events  int
}

// weighted draws an index from cumulative weights.
func weighted(r *rand.Rand, cum []int) int {
	x := r.Intn(cum[len(cum)-1])
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

func cumulative(ws []int) []int {
	out := make([]int, len(ws))
	s := 0
	for i, w := range ws {
		s += w
		out[i] = s
	}
	return out
}

// flowKey names shared flow i: one of 8 clients to one of 24 servers,
// distinct source port per 192 flows.
func flowKey(i int) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP: pkt.IP(10, 0, byte(i%8/4), byte(i%4)), DstIP: pkt.IP(10, 1, byte((i/8)%24/4), byte((i/8)%4)),
		SrcPort: uint16(10000 + i/192), DstPort: 8000, Proto: pkt.ProtoTCP,
	}
}

// uniqueFlow names flow j of a stream whose every event has its own flow
// (10.9.0.0/16 and up, never a shared flow's source).
func uniqueFlow(j int) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP: pkt.IP(10, 9, 0, 0) + uint32(j), DstIP: pkt.IP(10, 1, 0, 1),
		SrcPort: 20000, DstPort: 8000, Proto: pkt.ProtoTCP,
	}
}

// genStream makes n events in 50-event batches. Batch timestamps start at
// t0. With unique set, every event gets a flow no other event has;
// otherwise each switch draws from its own pool of shared flows, sized so
// the stream keeps the reference run's events per flow.
func genStream(seed uint64, n int, t0 sim.Time, unique bool) *stream {
	r := rand.New(rand.NewSource(int64(seed)))
	swCum := cumulative(switchEvents)
	tw := make([]int, len(typeMix))
	for i, m := range typeMix {
		tw[i] = m.w
	}
	typeCum := cumulative(tw)
	dw := make([]int, len(dropMix))
	for i, m := range dropMix {
		dw[i] = m.w
	}
	dropCum := cumulative(dw)

	scale := float64(n) / refEvents
	global := int(refFlows*scale) + 1
	pools := make([][]int, len(switchFlows))
	for sw, f := range switchFlows {
		size := int(float64(f)*scale) + 1
		pools[sw] = make([]int, size)
		for k := range pools[sw] {
			pools[sw][k] = r.Intn(global)
		}
	}

	all := make([]fevent.Event, n)
	s := &stream{events: n}
	for off, bi := 0, 0; off < n; bi++ {
		end := off + batchEvents
		if end > n {
			end = n
		}
		sw := uint16(weighted(r, swCum))
		ts := t0 + sim.Time(bi)*batchGap
		evs := all[off:end:end]
		for i := range evs {
			e := &evs[i]
			e.SwitchID, e.Timestamp = sw, ts
			e.Type = typeMix[weighted(r, typeCum)].t
			if unique {
				e.Flow = uniqueFlow(off + i)
			} else {
				pool := pools[sw]
				e.Flow = flowKey(pool[r.Intn(len(pool))])
			}
			e.Count = uint16(1 + r.Intn(300))
			switch e.Type {
			case fevent.TypeDrop:
				e.IngressPort, e.EgressPort = uint8(r.Intn(4)), uint8(r.Intn(4))
				e.DropCode = dropMix[weighted(r, dropCum)].c
			case fevent.TypeCongestion:
				e.EgressPort, e.Queue = uint8(r.Intn(4)), uint8(r.Intn(8))
				e.QueueLatencyUs = uint16(10 + r.Intn(500))
			case fevent.TypePathChange:
				e.IngressPort, e.EgressPort = uint8(r.Intn(4)), uint8(r.Intn(4))
				e.Count = 0
			case fevent.TypeHeavyHitter:
				e.IngressPort, e.EgressPort = uint8(r.Intn(4)), uint8(r.Intn(4))
			case fevent.TypeTopKChurn:
				e.EgressPort = uint8(r.Intn(4))
				e.SketchErr = uint16(r.Intn(300))
			case fevent.TypeAggSpike:
				e.Flow = pkt.FlowKey{}
				e.EgressPort = uint8(r.Intn(4))
				e.Window = uint16(ts / spikeWindow)
			}
			e.Hash = e.Flow.Hash()
		}
		s.batches = append(s.batches, &fevent.Batch{SwitchID: sw, Timestamp: ts, Events: evs})
		off = end
	}
	return s
}

// lastTimestamp is the stream's latest batch stamp.
func (s *stream) lastTimestamp() sim.Time {
	return s.batches[len(s.batches)-1].Timestamp
}
