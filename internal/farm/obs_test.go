package farm

import (
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestServerReadyDrain locks the worker's readiness semantics: ready
// while accepting sessions, not ready (errDraining) from the moment
// Shutdown begins — the signal farmd's /readyz serves to orchestrators.
// The connection and session gauges count an open session and return
// to 0 once the drain has severed it.
func TestServerReadyDrain(t *testing.T) {
	rec := obs.NewRecorder()
	s := NewServer(ServerOptions{Capacity: 1, Rec: rec})
	if err := s.Ready(); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}
	client, server := net.Pipe()
	defer client.Close()
	served := make(chan struct{})
	go func() {
		s.ServeConn(server)
		close(served)
	}()
	client.SetDeadline(time.Now().Add(10 * time.Second))
	handshake(t, client)
	// The server counts the session once its welcome write returns,
	// which may be just after the client has read it.
	conns, sessions := rec.Gauge("farm.server.conns"), rec.Gauge("farm.server.sessions")
	for giveUp := time.Now().Add(5 * time.Second); sessions.Value() == 0 && time.Now().Before(giveUp); {
		time.Sleep(time.Millisecond)
	}
	if conns.Value() != 1 || sessions.Value() != 1 {
		t.Fatalf("open session: farm.server.conns = %d, sessions = %d, want 1 and 1", conns.Value(), sessions.Value())
	}
	s.Shutdown()
	if err := s.Ready(); err == nil {
		t.Fatal("server still ready after Shutdown")
	}
	<-served
	if conns.Value() != 0 || sessions.Value() != 0 {
		t.Fatalf("after the drain: farm.server.conns = %d, sessions = %d, want 0 and 0", conns.Value(), sessions.Value())
	}
}

// TestFarmObservabilityOverheadGuard is the fleet-side CI benchmark
// guard: with metrics, tracing, and trace-identity propagation enabled
// on both the dispatcher and every worker, remote chunk throughput must
// stay within 5% of the uninstrumented fleet. Gated behind BENCH_GUARD=1
// because wall-clock comparisons are meaningless on noisy shared
// runners unless invoked deliberately.
func TestFarmObservabilityOverheadGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the farm observability overhead guard")
	}
	unit := iounit.New()
	events := unit.Model().Size()
	const instances = 256

	measure := func(instrumented bool) float64 {
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			lb := NewLoopback()
			addrs := []string{"w0", "w1"}
			servers := make([]*Server, 0, len(addrs))
			for _, addr := range addrs {
				var srec *obs.Recorder
				if instrumented {
					srec = obs.NewRecorder()
				}
				srv := NewServer(ServerOptions{Capacity: 2, Rec: srec})
				servers = append(servers, srv)
				lb.Add(addr, srv, Faults{})
			}
			opts := Options{Dial: lb.Dial}
			if instrumented {
				rec := obs.NewRecorder()
				rec.Campaign = "bench-guard"
				opts.Rec = rec
			}
			d := New(addrs, opts)
			if err := d.WaitReady(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			chunk := sim.RemoteChunk{
				Unit: iounit.UnitName, Seed: 42, Lo: 0, Hi: instances, Events: events,
				Campaign: opts.Rec.CampaignID(), Batch: 1, Chunk: 1,
			}
			dst := coverage.NewCounts(events)
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst.Reset()
					if err := d.RunChunkInto(chunk, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
			d.Close()
			for _, s := range servers {
				s.Shutdown()
			}
			perSim := float64(res.NsPerOp()) / instances
			if best == 0 || perSim < best {
				best = perSim
			}
		}
		return best
	}

	off := measure(false)
	on := measure(true)
	overhead := on/off - 1
	t.Logf("farm chunk path: obs off %.1f ns/sim, on %.1f ns/sim, overhead %.2f%%",
		off, on, overhead*100)
	if overhead > 0.05 {
		t.Fatalf("farm observability overhead %.2f%% exceeds the 5%% budget", overhead*100)
	}
}
