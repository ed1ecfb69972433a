package farm

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/sim"
)

// benchResultFrame builds the representative hot-path frame: a chunk
// result with one small-valued hit count per coverage event, as the
// iounit fleet produces thousands of times per run.
func benchResultFrame(events int) *Frame {
	hits := make([]uint64, events)
	for i := range hits {
		hits[i] = uint64(i % 97)
	}
	return &Frame{Type: TypeResult, ID: 12345, Hits: hits, Sims: 256}
}

// BenchmarkWireCodec measures one result-frame round trip (encode +
// decode) through a warm per-connection codec: the per-chunk protocol
// overhead with the transport and simulation subtracted out. SetBytes
// carries the logical coverage payload (8 bytes per event), so MB/s is
// how fast coverage data moves, not how fast the envelope does.
func BenchmarkWireCodec(b *testing.B) {
	f := benchResultFrame(256)
	var c codec
	var buf bytes.Buffer
	got := Frame{Hits: make([]uint64, 0, len(f.Hits))}
	if err := c.write(&buf, f); err != nil {
		b.Fatal(err)
	}
	if err := c.read(&buf, &got); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(f.Hits)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := c.write(&buf, f); err != nil {
			b.Fatal(err)
		}
		if err := c.read(&buf, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFarmChunkPath measures the dispatcher-side cost of one
// remote chunk — request encode, server execution, result decode,
// merge into caller scratch — over a two-worker loopback fleet.
// allocs/op is the allocs-per-chunk number the codec keeps at zero.
func BenchmarkFarmChunkPath(b *testing.B) {
	lb := NewLoopback()
	addrs := []string{"bench-w0", "bench-w1"}
	for _, addr := range addrs {
		srv := NewServer(ServerOptions{Capacity: 2})
		b.Cleanup(srv.Shutdown)
		lb.Add(addr, srv, Faults{})
	}
	d := New(addrs, Options{Dial: lb.Dial})
	b.Cleanup(d.Close)
	if err := d.WaitReady(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	events := iounit.New().Model().Size()
	const instances = 256
	chunk := sim.RemoteChunk{Unit: iounit.UnitName, Seed: 42, Lo: 0, Hi: instances, Events: events}
	dst := coverage.NewCounts(events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		if err := d.RunChunkInto(chunk, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*instances)/b.Elapsed().Seconds(), "sims/sec")
}
