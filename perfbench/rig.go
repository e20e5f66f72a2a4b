package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
)

// rig is one durable collector on loopback TCP plus the single exporter
// connection that feeds it: a WAL-backed collector.Server with real fsync
// and group commit, and one collector.Client.
type rig struct {
	dir    string
	wal    *wal.WAL
	store  *collector.Store
	srv    *collector.Server
	client *collector.Client
	acks   *ackLog
}

// clientQueue bounds the exporter's queue. Saturating phases hand a batch
// over only while fewer than window batches await their ack ("as fast as
// acks allow"), so the bound is never reached; a dropped batch would show
// as a failed check.
const (
	clientQueue = 4096
	window      = 512
)

func openRig(dir string) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("open WAL: %w", err)
	}
	store, _, err := collector.RecoverStore(w)
	if err != nil {
		w.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		return nil, err
	}
	acks := newAckLog()
	srv := collector.NewServerOn(store, &ackListener{Listener: ln, log: acks}, collector.ServerConfig{WAL: w})
	client := collector.NewClientConfig(ln.Addr().String(), collector.ClientConfig{MaxQueue: clientQueue})
	return &rig{dir: dir, wal: w, store: store, srv: srv, client: client, acks: acks}, nil
}

// close shuts the exporter, the server and the log down, in that order,
// and drops the rig's hold on the store, as a collector's exit would.
func (r *rig) close() error {
	cerr := r.client.Close()
	r.srv.Close()
	werr := r.wal.Close()
	r.store, r.srv = nil, nil
	if werr != nil {
		return werr
	}
	return cerr
}

// diskBytes sums the WAL segments and snapshots on disk.
func diskBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// recoverRig reopens dir's log and rebuilds the store from it, returning
// the store once it answers, and the time that took.
func recoverRig(dir string) (*collector.Store, time.Duration, error) {
	t0 := time.Now()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, 0, err
	}
	defer w.Close()
	store, _, err := collector.RecoverStore(w)
	if err != nil {
		return nil, 0, err
	}
	store.Len()
	return store, time.Since(t0), nil
}

// ackLog watches the collector's ack frames as they are written to the
// exporter's socket. Acks are cumulative, so one (time, seq) entry per
// frame gives every batch's ack time without touching the program.
type ackLog struct {
	mu      sync.Mutex
	times   []int64
	seqs    []uint64
	last    atomic.Uint64 // highest acked seq
	highest atomic.Uint64 // highest delivered seq
	wake    chan struct{}
}

func newAckLog() *ackLog {
	return &ackLog{wake: make(chan struct{}, 1)}
}

func (a *ackLog) record(seq uint64) {
	now := time.Now().UnixNano()
	a.mu.Lock()
	a.times = append(a.times, now)
	a.seqs = append(a.seqs, seq)
	a.mu.Unlock()
	a.last.Store(seq)
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

func (a *ackLog) delivered(seq uint64) { a.highest.Store(seq) }

// waitBelow blocks until fewer than n delivered batches are unacked.
func (a *ackLog) waitBelow(n uint64) {
	for {
		h, l := a.highest.Load(), a.last.Load()
		if h <= l || h-l < n {
			return
		}
		<-a.wake
	}
}

// ackTimes returns, for each seq (ascending), the time its covering ack
// left the collector, or 0 if none did.
func (a *ackLog) ackTimes(seqs []uint64) []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int64, len(seqs))
	j := 0
	for i, s := range seqs {
		for j < len(a.seqs) && a.seqs[j] < s {
			j++
		}
		if j < len(a.seqs) {
			out[i] = a.times[j]
		}
	}
	return out
}

// ackListener wraps the collector's listener so every accepted
// connection reports the ack frames the server writes.
type ackListener struct {
	net.Listener
	log *ackLog
}

func (l *ackListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ackConn{Conn: c, log: l.log}, nil
}

// ackFrameLen is the server→client ack frame: 8 B cumulative seq + 4 B CRC.
const ackFrameLen = 12

type ackConn struct {
	net.Conn
	log *ackLog
	buf []byte
}

// Write records each ack frame as it is handed to the socket, before the
// exporter can read it.
func (c *ackConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	for len(c.buf) >= ackFrameLen {
		c.log.record(binary.BigEndian.Uint64(c.buf))
		c.buf = c.buf[ackFrameLen:]
	}
	return c.Conn.Write(p)
}

// digest is an order-independent fingerprint of a multiset of stored
// events: each event's switch ID and 24-byte wire record hash to 64 bits,
// and the hashes are summed and xored.
type digest struct {
	n        int
	sum, xor uint64
}

func (d *digest) add(e *fevent.Event) {
	var b [2 + fevent.RecordLen]byte
	binary.BigEndian.PutUint16(b[:2], e.SwitchID)
	e.AppendRecord(b[:2])
	h := fnv.New64a()
	h.Write(b[:])
	x := h.Sum64()
	// splitmix64 finalizer: spreads FNV's low-entropy high bits.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	d.n++
	d.sum += x
	d.xor ^= x
}

func digestEvents(evs []fevent.Event) digest {
	var d digest
	for i := range evs {
		d.add(&evs[i])
	}
	return d
}

func digestBatches(bs []*fevent.Batch) digest {
	var d digest
	for _, b := range bs {
		for i := range b.Events {
			d.add(&b.Events[i])
		}
	}
	return d
}

// swType keys per-(switch, type) tallies.
type swType struct {
	sw uint16
	t  fevent.Type
}

func tallyEvents(evs []fevent.Event) map[swType]int {
	out := make(map[swType]int)
	for i := range evs {
		out[swType{evs[i].SwitchID, evs[i].Type}]++
	}
	return out
}

// diffTallies describes up to a few keys on which got and want differ.
func diffTallies(got, want map[swType]int) []string {
	var out []string
	keys := make(map[swType]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var ks []swType
	for k := range keys {
		if got[k] != want[k] {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].sw != ks[j].sw {
			return ks[i].sw < ks[j].sw
		}
		return ks[i].t < ks[j].t
	})
	for _, k := range ks {
		if len(out) == 5 {
			out = append(out, "...")
			break
		}
		out = append(out, fmt.Sprintf("switch %d %s: got %d want %d", k.sw, k.t, got[k], want[k]))
	}
	return out
}
