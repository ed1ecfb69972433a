package farm

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/obs"
	"repro/internal/sim"
)

func cancelChunk() sim.RemoteChunk {
	return sim.RemoteChunk{
		Unit: iounit.UnitName, Seed: 7, Lo: 0, Hi: 16,
		Events: iounit.New().Model().Size(),
	}
}

// runCancelChunk runs cancelChunk on d into a fresh aggregate.
func runCancelChunk(d *Dispatcher) error {
	c := cancelChunk()
	return d.RunChunkInto(c, coverage.NewCounts(c.Events))
}

// TestRunChunkCanceledContext: once the dispatcher's context is
// canceled, queued remote work fails immediately with the context's
// error (the scheduler's abort path then drops the chunk without
// simulating) and the cancellation is counted.
func TestRunChunkCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	lb := NewLoopback()
	srv := NewServer(ServerOptions{Capacity: 2})
	defer srv.Shutdown()
	lb.Add("a", srv, Faults{})
	rec := obs.NewRecorder()
	opts := testOptions(lb.Dial, rec)
	opts.Context = ctx
	d := New([]string{"a"}, opts)
	defer d.Close()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := runCancelChunk(d); err != nil {
		t.Fatalf("healthy RunChunkInto: %v", err)
	}
	cancel()
	if err := runCancelChunk(d); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunChunkInto after cancel: err = %v, want context.Canceled", err)
	}
	if got := rec.Counter("farm.chunks_canceled").Value(); got != 1 {
		t.Fatalf("farm.chunks_canceled = %d, want 1", got)
	}
}

// TestCancelUnblocksAcquire: a cancellation arriving while RunChunkInto is
// waiting for a connection (dead fleet, long acquire timeout) unblocks
// it promptly instead of burning the full timeout and retry backoff.
func TestCancelUnblocksAcquire(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	lb := NewLoopback() // no workers registered: acquire always blocks
	opts := testOptions(lb.Dial, nil)
	opts.timing.acquire = 30 * time.Second
	opts.Context = ctx
	d := New(nil, opts)
	defer d.Close()

	done := make(chan error, 1)
	go func() {
		done <- runCancelChunk(d)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunChunkInto succeeded with no workers")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunChunkInto still blocked long after cancellation")
	}
}
