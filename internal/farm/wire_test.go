package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/template"
)

// quickFrame builds a representable frame from fuzz/quick raw material:
// a valid type, non-negative ints and valid UTF-8 strings.
func quickFrame(typeIdx uint8, capacity uint16, id, seed, sims uint64,
	lo, hi uint16, unit, errMsg string, hasTmpl bool, hits []uint64) Frame {
	types := []string{TypeHello, TypeWelcome, TypeChunk, TypeResult, TypePing, TypePong, TypeError}
	f := Frame{
		Type:        types[int(typeIdx)%len(types)],
		Capacity:    int(capacity),
		ID:          id,
		Unit:        strings.ToValidUTF8(unit, "?"),
		Seed:        seed,
		Lo:          int(lo),
		Hi:          int(hi),
		HasTemplate: hasTmpl,
		Sims:        sims,
		Err:         strings.ToValidUTF8(errMsg, "?"),
	}
	if hasTmpl {
		f.Template = "template t { weight Mode { a: 1; } }"
	}
	if len(hits) > 0 { // the decoder folds an empty slice to nil
		f.Hits = hits
	}
	return f
}

// traceFrame is a representative chunk frame carrying the trace
// trailer (campaign/batch/chunk identity plus a build string).
func traceFrame() Frame {
	return Frame{
		Type: TypeChunk, ID: 9, Unit: "iounit",
		Template: "template t { weight Mode { a: 1; } }", HasTemplate: true,
		Seed: 77, Lo: 8, Hi: 24,
		Campaign: "c000042", Batch: 13, Chunk: 123456, Build: "abc123def456",
	}
}

// TestFrameRoundTripQuick property-checks the JSON handshake framing:
// any frame small enough for the handshake bound survives
// WriteFrame → ReadFrame bit for bit.
func TestFrameRoundTripQuick(t *testing.T) {
	prop := func(typeIdx uint8, version, capacity uint16, id, seed, sims uint64,
		lo, hi uint16, unit, errMsg string, hasTmpl bool, hits []uint64) bool {
		f := quickFrame(typeIdx, capacity, id, seed, sims, lo, hi, unit, errMsg, hasTmpl, hits)
		f.Version = int(version)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &f); err != nil {
			return false
		}
		var got Frame
		if err := ReadFrame(&buf, &got); err != nil {
			return false
		}
		return reflect.DeepEqual(f, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameRoundTripQuickV2 property-checks the binary codec on frames
// without a trace identity (the field set protocol v2 carried): encode
// → decode is the identity, and the JSON framing decodes the same frame.
func TestFrameRoundTripQuickV2(t *testing.T) {
	prop := func(typeIdx uint8, version, capacity uint16, id, seed, sims uint64,
		lo, hi uint16, unit, errMsg string, hasTmpl bool, hits []uint64) bool {
		f := quickFrame(typeIdx, capacity, id, seed, sims, lo, hi, unit, errMsg, hasTmpl, hits)
		f.Version = int(version)
		var c codec
		var buf bytes.Buffer
		if err := c.write(&buf, &f); err != nil {
			return false
		}
		var bin Frame
		if err := c.read(&buf, &bin); err != nil {
			return false
		}
		if !reflect.DeepEqual(f, bin) {
			return false
		}
		buf.Reset()
		if err := WriteFrame(&buf, &f); err != nil {
			return false
		}
		var js Frame
		if err := ReadFrame(&buf, &js); err != nil {
			return false
		}
		return reflect.DeepEqual(js, bin)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameRoundTripQuickV3 property-checks the codec: any
// representable frame, trace identity included, survives write → read
// bit for bit.
func TestFrameRoundTripQuickV3(t *testing.T) {
	prop := func(typeIdx uint8, version, capacity uint16, id, seed, sims uint64,
		lo, hi uint16, unit, errMsg string, hasTmpl bool, hits []uint64,
		campaign, build string, batch, chunkID uint64) bool {
		f := quickFrame(typeIdx, capacity, id, seed, sims, lo, hi, unit, errMsg, hasTmpl, hits)
		f.Version = int(version)
		f.Campaign = strings.ToValidUTF8(campaign, "?")
		f.Build = strings.ToValidUTF8(build, "?")
		f.Batch, f.Chunk = batch, chunkID
		var c codec
		var buf bytes.Buffer
		if err := c.write(&buf, &f); err != nil {
			return false
		}
		var got Frame
		if err := c.read(&buf, &got); err != nil {
			return false
		}
		return reflect.DeepEqual(f, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameRoundTripV3 round-trips the trace-carrying chunk frame
// through the codec and, as a handshake frame would travel, through
// JSON: both keep the trace fields.
func TestFrameRoundTripV3(t *testing.T) {
	f := traceFrame()
	var buf bytes.Buffer
	var c codec
	if err := c.write(&buf, &f); err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := c.read(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("codec round trip:\n%+v\nvs\n%+v", got, f)
	}
	buf.Reset()
	if err := WriteFrame(&buf, &f); err != nil {
		t.Fatal(err)
	}
	var js Frame
	if err := ReadFrame(&buf, &js); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, js) {
		t.Fatalf("JSON round trip dropped trace fields:\n%+v\nvs\n%+v", js, f)
	}
}

// TestV3TrailerStrictness locks the trailer's failure modes: a payload
// missing the trailer (what a trailer-less encoder would send) and a
// payload with bytes behind it both fail loudly instead of decoding
// into a half-right frame.
func TestV3TrailerStrictness(t *testing.T) {
	f := traceFrame()
	full, err := appendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	trailer := appendString(nil, f.Campaign)
	trailer = binary.AppendUvarint(trailer, f.Batch)
	trailer = binary.AppendUvarint(trailer, f.Chunk)
	trailer = appendString(trailer, f.Build)
	var got Frame
	if err := decodeFrame(full[:len(full)-len(trailer)], &got); err == nil {
		t.Fatal("payload without the trace trailer decoded")
	}
	if err := decodeFrame(append(full, 0), &got); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("payload with a trailing byte: %v, want trailing-bytes error", err)
	}
}

// TestEncodeRejects checks the encoder refuses frames the layout cannot
// represent instead of writing garbage.
func TestEncodeRejects(t *testing.T) {
	if _, err := appendFrame(nil, &Frame{Type: "martian"}); err == nil {
		t.Fatal("unknown type encoded")
	}
	if _, err := appendFrame(nil, &Frame{Type: TypeChunk, Lo: -1}); err == nil {
		t.Fatal("negative field encoded")
	}
}

// TestDecodeRejects checks malformed payloads are rejected rather than
// misread: empty input, unknown types, truncations at every boundary,
// phantom hit counts, and trailing bytes.
func TestDecodeRejects(t *testing.T) {
	valid, err := appendFrame(nil, &Frame{Type: TypeResult, ID: 9, Hits: []uint64{1, 0, 300}, Sims: 3})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := decodeFrame(nil, &f); err == nil {
		t.Fatal("empty payload accepted")
	}
	for _, tb := range []byte{0, typeError + 1, 200} {
		p := append([]byte{tb}, valid[1:]...)
		if err := decodeFrame(p, &f); err == nil {
			t.Fatalf("unknown type byte %d accepted", tb)
		}
	}
	for cut := 1; cut < len(valid); cut++ {
		if err := decodeFrame(valid[:cut], &f); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(valid))
		}
	}
	if err := decodeFrame(append(append([]byte{}, valid...), 0), &f); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A declared hit count beyond the remaining payload must be rejected
	// before any allocation: nhits=200 with only the four trailer bytes
	// of an empty trace identity behind it.
	noHits, err := appendFrame(nil, &Frame{Type: TypeResult, ID: 9, Sims: 3})
	if err != nil {
		t.Fatal(err)
	}
	const trailer = 4 // empty campaign, batch 0, chunk 0, empty build
	phantom := append(noHits[:len(noHits)-trailer-1:len(noHits)-trailer-1], 200, 1, 0, 0, 0, 0)
	if err := decodeFrame(phantom, &f); err == nil {
		t.Fatal("phantom hit count accepted")
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	f := &Frame{Type: TypeChunk, Template: strings.Repeat("x", MaxFrame+1), HasTemplate: true}
	if err := WriteFrame(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestWriteFrameV2RejectsOversized checks the binary codec's write
// guard mirrors the JSON one.
func TestWriteFrameV2RejectsOversized(t *testing.T) {
	f := &Frame{Type: TypeChunk, Template: strings.Repeat("x", MaxFrame+1), HasTemplate: true}
	var c codec
	if err := c.write(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// oversizedHeaderRejected checks that read fails with ErrFrameTooLarge
// on a bare length header declaring n bytes, before reading (or
// allocating) any payload.
func oversizedHeaderRejected(t *testing.T, read func(io.Reader) error, n uint32) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	if err := read(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("declared length %d: err = %v, want ErrFrameTooLarge (and no allocation)", n, err)
	}
}

// TestReadFrameRejectsOversizedLength checks a declared length above
// the JSON handshake reader's bound fails before allocating: the reader
// caps at maxHandshakeFrame, well below MaxFrame.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	read := func(r io.Reader) error { var f Frame; return ReadFrame(r, &f) }
	oversizedHeaderRejected(t, read, MaxFrame+1)
	oversizedHeaderRejected(t, read, maxHandshakeFrame+1)
}

// TestReadFrameV2RejectsOversizedLength mirrors the JSON guard for the
// binary codec: a declared length beyond MaxFrame fails before
// allocating.
func TestReadFrameV2RejectsOversizedLength(t *testing.T) {
	read := func(r io.Reader) error { var c codec; var f Frame; return c.read(r, &f) }
	oversizedHeaderRejected(t, read, MaxFrame+1)
	oversizedHeaderRejected(t, read, 1<<32-1)
}

func TestReadFrameRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: TypePing, ID: 42}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, 3, 4, len(whole) - 1} {
		var f Frame
		err := ReadFrame(bytes.NewReader(whole[:cut]), &f)
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	payload := []byte("!!! definitely not json !!!")
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	var f Frame
	if err := ReadFrame(&buf, &f); err == nil {
		t.Fatal("garbage payload accepted")
	}
}

func TestChunkFrameRoundTrip(t *testing.T) {
	tmpl, err := template.Parse("template rt { weight Mode { a: 3; b: 7; } }")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []*template.Template{tmpl, nil} {
		var f, got Frame
		fillChunkFrame(&f, 7, sim.RemoteChunk{Unit: "iounit", Template: tc, Seed: 99, Lo: 8, Hi: 24})
		var buf bytes.Buffer
		var c codec
		if err := c.write(&buf, &f); err != nil {
			t.Fatal(err)
		}
		if err := c.read(&buf, &got); err != nil {
			t.Fatal(err)
		}
		back, err := chunkTemplate(&got)
		if err != nil {
			t.Fatal(err)
		}
		if tc == nil {
			if back != nil {
				t.Fatal("nil template did not survive")
			}
			continue
		}
		if back.String() != tc.String() {
			t.Fatalf("template diverged:\n%s\nvs\n%s", back.String(), tc.String())
		}
	}
}

// TestChunkFrameCarriesTraceIdentity locks the dispatcher-side fill
// path: a RemoteChunk's campaign/batch/chunk identity lands on the
// outbound frame.
func TestChunkFrameCarriesTraceIdentity(t *testing.T) {
	c := sim.RemoteChunk{
		Unit: iounit.UnitName, Seed: 1, Lo: 0, Hi: 8,
		Campaign: "c000007", Batch: 3, Chunk: 99,
	}
	var f Frame
	fillChunkFrame(&f, 11, c)
	if f.Campaign != "c000007" || f.Batch != 3 || f.Chunk != 99 {
		t.Fatalf("frame trace identity = %q/%d/%d", f.Campaign, f.Batch, f.Chunk)
	}
}

// TestHandshakeNegotiation drives the server handshake with hellos it
// accepts: the welcome confirms ProtocolVersion and the session then
// speaks the binary codec.
func TestHandshakeNegotiation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		helloMax int
	}{
		{"both_current", ProtocolVersion},
		{"future_client", ProtocolVersion + 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(ServerOptions{Capacity: 1})
			defer srv.Shutdown()
			client, server := net.Pipe()
			defer client.Close()
			go srv.ServeConn(server)
			client.SetDeadline(time.Now().Add(5 * time.Second))
			if err := WriteFrame(client, &Frame{Type: TypeHello, Version: handshakeVersion, Max: tc.helloMax}); err != nil {
				t.Fatal(err)
			}
			var welcome Frame
			if err := ReadFrame(client, &welcome); err != nil {
				t.Fatal(err)
			}
			if welcome.Type != TypeWelcome || welcome.Version != handshakeVersion || welcome.Max != ProtocolVersion {
				t.Fatalf("welcome = %+v", welcome)
			}
			var c codec
			if err := c.write(client, &Frame{Type: TypePing, ID: 77}); err != nil {
				t.Fatal(err)
			}
			var pong Frame
			if err := c.read(client, &pong); err != nil {
				t.Fatal(err)
			}
			if pong.Type != TypePong || pong.ID != 77 {
				t.Fatalf("pong = %+v", pong)
			}
		})
	}
}

// TestHandshakeVersionRefusal checks a server refuses, with an in-band
// error frame naming both versions, every hello that does not offer
// ProtocolVersion at the handshake framing version.
func TestHandshakeVersionRefusal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hello Frame
	}{
		{"old_client_no_max", Frame{Type: TypeHello, Version: handshakeVersion}},
		{"v1_capped_client", Frame{Type: TypeHello, Version: handshakeVersion, Max: 1}},
		{"v2_capped_client", Frame{Type: TypeHello, Version: handshakeVersion, Max: 2}},
		{"future_handshake", Frame{Type: TypeHello, Version: handshakeVersion + 1, Max: ProtocolVersion}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			srv := NewServer(ServerOptions{Capacity: 1, Rec: rec})
			defer srv.Shutdown()
			client, server := net.Pipe()
			defer client.Close()
			go srv.ServeConn(server)
			client.SetDeadline(time.Now().Add(5 * time.Second))
			if err := WriteFrame(client, &tc.hello); err != nil {
				t.Fatal(err)
			}
			var f Frame
			if err := ReadFrame(client, &f); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("protocol version %d (handshake %d); this worker speaks version %d",
				tc.hello.Max, tc.hello.Version, ProtocolVersion)
			if f.Type != TypeError || !strings.Contains(f.Err, want) {
				t.Fatalf("refusal frame = %+v, want an error containing %q", f, want)
			}
			if n := rec.Metrics.Snapshot().Counters["farm.server.refused"]; n != 1 {
				t.Fatalf("farm.server.refused = %d, want 1", n)
			}
		})
	}
}

// TestDialNegotiation drives the dispatcher's side of a handshake that
// succeeds: a worker confirming ProtocolVersion yields a live session
// with the advertised capacity, and the binary codec carries a ping.
func TestDialNegotiation(t *testing.T) {
	t.Run("current_worker", func(t *testing.T) {
		fakeDial := func(string) (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				var f Frame
				if ReadFrame(server, &f) != nil {
					return
				}
				WriteFrame(server, &Frame{Type: TypeWelcome, Version: handshakeVersion, Max: ProtocolVersion, Capacity: 3})
				var c codec
				var p Frame
				if c.read(server, &p) == nil && p.Type == TypePing {
					c.write(server, &Frame{Type: TypePong, ID: p.ID})
				}
			}()
			return client, nil
		}
		d := New(nil, Options{Dial: fakeDial})
		defer d.Close()
		w, capacity, err := d.dial(0, "current")
		if err != nil {
			t.Fatal(err)
		}
		defer w.conn.Close()
		if capacity != 3 {
			t.Fatalf("capacity = %d, want 3", capacity)
		}
		if err := d.ping(w); err != nil {
			t.Fatalf("session ping: %v", err)
		}
	})
}

// TestDialVersionMismatch checks the dispatcher accepts only a welcome
// confirming ProtocolVersion: a refusal, a welcome without Max, one
// offering an older version and one overbidding all map onto
// ErrVersionMismatch.
func TestDialVersionMismatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply Frame
	}{
		{"error_frame", Frame{Type: TypeError, Err: "go away"}},
		{"old_worker_no_max", Frame{Type: TypeWelcome, Version: handshakeVersion, Capacity: 1}},
		{"v1_worker", Frame{Type: TypeWelcome, Version: handshakeVersion, Max: 1, Capacity: 1}},
		{"v2_worker", Frame{Type: TypeWelcome, Version: handshakeVersion, Max: 2, Capacity: 1}},
		{"overbidding_worker", Frame{Type: TypeWelcome, Version: handshakeVersion, Max: ProtocolVersion + 7, Capacity: 1}},
		{"future_handshake", Frame{Type: TypeWelcome, Version: handshakeVersion + 1, Max: ProtocolVersion, Capacity: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fakeDial := func(string) (net.Conn, error) {
				client, server := net.Pipe()
				go func() {
					defer server.Close()
					var f Frame
					if ReadFrame(server, &f) != nil {
						return
					}
					WriteFrame(server, &tc.reply)
				}()
				return client, nil
			}
			d := New(nil, Options{Dial: fakeDial})
			defer d.Close()
			if _, _, err := d.dial(0, "fake"); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("err = %v, want ErrVersionMismatch", err)
			}
		})
	}
}

// countingWriter counts Write calls — the frame-counting contract the
// fault-injection loopback relies on.
type countingWriter struct {
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

func TestCodecOneWritePerFrame(t *testing.T) {
	f := &Frame{Type: TypeResult, ID: 1, Hits: []uint64{1, 2, 3}, Sims: 3}
	var c codec
	for name, write := range map[string]func(io.Writer, *Frame) error{
		"json": WriteFrame, "codec": c.write,
	} {
		cw := &countingWriter{}
		if err := write(cw, f); err != nil {
			t.Fatal(err)
		}
		if cw.writes != 1 {
			t.Fatalf("%s frame took %d Write calls, want 1", name, cw.writes)
		}
	}
}

// TestCodecRoundTripAllocs pins the steady-state promise: a warm
// per-connection codec moves result frames with zero allocations on
// both the encode and decode side.
func TestCodecRoundTripAllocs(t *testing.T) {
	var c codec
	hits := make([]uint64, 512)
	for i := range hits {
		hits[i] = uint64(i * 7)
	}
	f := &Frame{Type: TypeResult, ID: 3, Hits: hits, Sims: 99}
	got := Frame{Hits: make([]uint64, 0, len(hits))}
	var buf bytes.Buffer
	buf.Grow(16 << 10)
	// Warm the codec scratch once.
	if err := c.write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if err := c.read(&buf, &got); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if err := c.write(&buf, f); err != nil {
			t.Fatal(err)
		}
		if err := c.read(&buf, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm result round-trip allocates %.1f times per frame, want 0", allocs)
	}
	if !reflect.DeepEqual(f.Hits, got.Hits) || got.Sims != f.Sims {
		t.Fatal("round-trip corrupted the frame")
	}
}

func TestCheckModelFits(t *testing.T) {
	if err := CheckModelFits(maxEvents()); err != nil {
		t.Fatalf("boundary model rejected: %v", err)
	}
	err := CheckModelFits(maxEvents() + 1)
	var mtl *ModelTooLargeError
	if !errors.As(err, &mtl) {
		t.Fatalf("err = %v, want *ModelTooLargeError", err)
	}
	if mtl.Events != maxEvents()+1 || mtl.MaxEvents != maxEvents() {
		t.Fatalf("error fields = %+v", mtl)
	}
	if errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("ModelTooLargeError must be distinguishable from ErrFrameTooLarge")
	}
	// The worst case the bound promises: maxEvents varint-maximal hit
	// counts plus a full envelope still fit one frame.
	hits := make([]uint64, maxEvents())
	for i := range hits {
		hits[i] = 1<<64 - 1
	}
	var c codec
	if err := c.write(io.Discard, &Frame{Type: TypeResult, ID: 1<<64 - 1, Sims: 1<<64 - 1, Hits: hits}); err != nil {
		t.Fatalf("worst-case result frame at the bound: %v", err)
	}
}

// TestFarmModelTooLarge checks the dispatcher's behavior on a model
// that cannot fit a legal frame: the typed error surfaces immediately,
// nothing is retried, and the (healthy) connection survives and keeps
// serving.
func TestFarmModelTooLarge(t *testing.T) {
	rec := obs.NewRecorder()
	d, _ := farmFixture(t, []Faults{{}}, rec)
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	err := d.RunChunkInto(sim.RemoteChunk{
		Unit: iounit.UnitName, Seed: 1, Lo: 0, Hi: 4, Events: maxEvents() + 1,
	}, coverage.NewCounts(maxEvents()+1))
	var mtl *ModelTooLargeError
	if !errors.As(err, &mtl) {
		t.Fatalf("err = %v, want *ModelTooLargeError", err)
	}
	snap := rec.Metrics.Snapshot()
	if snap.Counters["farm.conn_evictions"] != 0 {
		t.Fatal("healthy connection evicted over a permanent model-size error")
	}
	if snap.Counters["farm.retries"] != 0 {
		t.Fatal("permanent model-size error was retried")
	}
	// The same connection still executes normal chunks.
	unit := iounit.New()
	got := coverage.NewCountsFor(unit.Model())
	if err := d.RunChunkInto(sim.RemoteChunk{
		Unit: iounit.UnitName, Seed: 42, Lo: 0, Hi: 10, Events: unit.Model().Size(),
	}, got); err != nil {
		t.Fatal(err)
	}
	if got.Sims() != 10 {
		t.Fatalf("post-error chunk sims = %d, want 10", got.Sims())
	}
}

// FuzzWireDecode fuzzes the decoder with raw payloads: any input either
// fails cleanly or yields a frame that re-encodes and re-decodes to
// itself (semantic idempotence — overlong varints may re-encode
// shorter, but never to a different frame).
func FuzzWireDecode(f *testing.F) {
	seeds := []Frame{
		{Type: TypeHello, Version: handshakeVersion, Max: ProtocolVersion},
		{Type: TypeWelcome, Version: handshakeVersion, Max: ProtocolVersion, Capacity: 4},
		{Type: TypeChunk, ID: 7, Unit: "iounit", Template: "template t { weight Mode { a: 1; } }", HasTemplate: true, Seed: 99, Lo: 8, Hi: 24},
		{Type: TypeResult, ID: 7, Hits: []uint64{0, 1, 1 << 40}, Sims: 16},
		{Type: TypePing, ID: 3},
		{Type: TypeError, Err: "boom"},
		traceFrame(),
	}
	for i := range seeds {
		p, err := appendFrame(nil, &seeds[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{typeResult})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, p []byte) {
		var fr Frame
		if err := decodeFrame(p, &fr); err != nil {
			return
		}
		enc, err := appendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v (%+v)", err, fr)
		}
		var fr2 Frame
		if err := decodeFrame(enc, &fr2); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("round-trip diverged:\n%+v\nvs\n%+v", fr, fr2)
		}
	})
}
