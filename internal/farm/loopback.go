package farm

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"
)

// Faults program the loopback transport's misbehavior. All counters are
// per-connection except FailDials, which is a per-worker budget.
type Faults struct {
	// FailDials fails this worker's first N dial attempts — exercises
	// the keeper's redial backoff and WaitReady.
	FailDials int
	// Delay is added before every server-side frame write after the
	// welcome — exercises the per-chunk deadline when larger than the
	// dispatcher's chunk timing (60s in fleetTiming, shorter in tests),
	// and plain latency otherwise. The welcome goes out at once, so a
	// worker slower than the deadline still joins and takes chunks.
	Delay time.Duration
	// DuplicateEvery duplicates every Nth server-side frame (0: never) —
	// exercises the dispatcher's correlation-ID skip and, with the
	// scheduler's exactly-once merge, proves duplicates cannot
	// double-count.
	DuplicateEvery int
	// DropAfterFrames severs the connection after the server has
	// written N frames (0: never) — exercises mid-run worker loss,
	// chunk retry on other connections, and local fallback.
	DropAfterFrames int
	// FlapEvery severs every connection this long after it is
	// established (0: never) — a flappy worker that keeps dying and
	// rejoining, exercising the health breaker's quarantine/probe loop
	// under sustained instability.
	FlapEvery time.Duration
	// Corrupt adds one to one hit count of every result frame, the
	// count at the frame's ID modulo the array length, and re-encodes
	// the frame — a byzantine worker whose results are well-formed and
	// wrong, which only the dispatcher's integrity audit can catch.
	Corrupt bool
}

// Loopback is an in-memory farm transport for tests: worker addresses
// map to in-process Servers, and each connection's server side is
// wrapped with programmable fault injection. Its Dial method slots into
// Options.Dial, so the entire dispatcher stack — handshake, pooling,
// heartbeats, retries, fallback — runs unchanged against a misbehaving
// "network" with no sockets involved.
type Loopback struct {
	mu      sync.Mutex
	workers map[string]*loopWorker
}

type loopWorker struct {
	srv         *Server
	faults      Faults
	failedDials int
}

// NewLoopback returns an empty transport; register workers with Add.
func NewLoopback() *Loopback {
	return &Loopback{workers: map[string]*loopWorker{}}
}

// Add registers a worker under an address with its fault program.
func (l *Loopback) Add(addr string, srv *Server, f Faults) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.workers[addr] = &loopWorker{srv: srv, faults: f}
}

// Dial implements Options.Dial: it builds a synchronous in-memory pipe,
// wraps the server end in the worker's fault program, and serves the
// farm protocol on it.
func (l *Loopback) Dial(addr string) (net.Conn, error) {
	l.mu.Lock()
	w, ok := l.workers[addr]
	if !ok {
		l.mu.Unlock()
		return nil, fmt.Errorf("farm: loopback has no worker %q", addr)
	}
	if w.failedDials < w.faults.FailDials {
		w.failedDials++
		l.mu.Unlock()
		return nil, fmt.Errorf("farm: loopback: injected dial failure %d/%d for %q",
			w.failedDials, w.faults.FailDials, addr)
	}
	faults := w.faults
	l.mu.Unlock()

	client, server := net.Pipe()
	fc := newFaultConn(server, faults)
	go func() {
		w.srv.ServeConn(fc)
		fc.Close()
	}()
	return client, nil
}

// faultConn wraps the server side of a pipe. Writes are decoupled onto
// a background goroutine so injected delays and duplicates cannot
// deadlock the synchronous pipe (a duplicated frame would otherwise
// block the server until the client happens to read it). WriteFrame
// sends each frame as exactly one Write call, so counting writes counts
// frames.
type faultConn struct {
	net.Conn
	faults  Faults
	wch     chan []byte
	done    chan struct{}
	closeMu sync.Mutex
	closed  bool
}

func newFaultConn(conn net.Conn, f Faults) *faultConn {
	fc := &faultConn{
		Conn:   conn,
		faults: f,
		wch:    make(chan []byte, 64),
		done:   make(chan struct{}),
	}
	go fc.writer()
	if f.FlapEvery > 0 {
		go func() {
			select {
			case <-time.After(f.FlapEvery):
				fc.Close()
			case <-fc.done:
			}
		}()
	}
	return fc
}

func (fc *faultConn) Write(b []byte) (int, error) {
	buf := make([]byte, len(b))
	copy(buf, b)
	select {
	case fc.wch <- buf:
		return len(b), nil
	case <-fc.done:
		return 0, net.ErrClosed
	}
}

// writer applies the fault program to the outgoing frame stream.
func (fc *faultConn) writer() {
	frames := 0
	for {
		select {
		case <-fc.done:
			return
		case buf := <-fc.wch:
			frames++
			if fc.faults.DropAfterFrames > 0 && frames > fc.faults.DropAfterFrames {
				fc.Close() // sever: the client sees EOF mid-exchange
				return
			}
			if fc.faults.Corrupt {
				buf = corruptResult(buf)
			}
			if fc.faults.Delay > 0 && frames > 1 {
				select {
				case <-time.After(fc.faults.Delay):
				case <-fc.done:
					return
				}
			}
			if _, err := fc.Conn.Write(buf); err != nil {
				return
			}
			if fc.faults.DuplicateEvery > 0 && frames%fc.faults.DuplicateEvery == 0 {
				if _, err := fc.Conn.Write(buf); err != nil {
					return
				}
			}
		}
	}
}

// corruptResult returns a length-prefixed frame with one hit count of
// a result frame raised by one; any other frame (the JSON handshake
// included, which does not decode as binary) passes unchanged.
func corruptResult(buf []byte) []byte {
	var f Frame
	if decodeFrame(buf[4:], &f) != nil || f.Type != TypeResult || len(f.Hits) == 0 {
		return buf
	}
	f.Hits[f.ID%uint64(len(f.Hits))]++
	var c codec
	var out bytes.Buffer
	if c.write(&out, &f) != nil {
		return buf
	}
	return out.Bytes()
}

func (fc *faultConn) Close() error {
	fc.closeMu.Lock()
	defer fc.closeMu.Unlock()
	if fc.closed {
		return nil
	}
	fc.closed = true
	close(fc.done)
	return fc.Conn.Close()
}
