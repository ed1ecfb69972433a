// Package farm is the distributed execution backend of the AS-CDG
// reproduction: the stand-in for the industrial simulation farm the
// paper's CDG-Runner submits jobs to (Section I, Fig. 2 — "the massive
// compute resources of the simulation farm").
//
// A farm deployment is a set of worker daemons (cmd/farmd) running
// Server, and a Dispatcher inside the flow process that implements
// sim.ChunkRunner: the scheduler's remote lanes hand it relocatable
// chunks — (unit, template source, batch-seed state, index range) — and
// it returns the chunk's aggregated coverage counts. Because instance i
// of a batch is seeded purely from (batch seed, i), a chunk computes the
// same bits on any worker, so the flow's reports are bit-identical at
// any fleet size, under any failure pattern, and with remote execution
// disabled entirely.
//
// The wire protocol is one codec behind one framing. Every frame is one
// 4-byte big-endian length followed by exactly that many payload bytes,
// written in a single Write call. A session opens with a JSON handshake
// — the client's hello offers protocol v3 in its Max field, the
// server's welcome confirms it — so the handshake stays readable with
// nc/tcpdump and a peer that cannot speak v3 is refused in-band. After
// the welcome every frame is binary (see appendFrame): varint fields, a
// dense varint hit-count array and a trace-correlation trailer, encoded
// and decoded against per-connection grow-once buffers, so the chunk
// path allocates nothing in steady state.
package farm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/template"
)

const (
	// ProtocolVersion is the chunk-path codec this build speaks: hellos
	// offer it in Max and welcomes confirm it. Bump on any frame layout
	// or semantics change.
	ProtocolVersion = 3
	// handshakeVersion is the hello/welcome framing version carried in
	// Frame.Version. It never changes.
	handshakeVersion = 1
)

// MaxFrame bounds a binary frame's payload. Chunk requests carry one
// template source (a few KiB) and results carry one hit count per event
// (at most 10 bytes each), so 4 MiB is orders of magnitude above any
// legitimate frame while still rejecting garbage lengths (e.g. a peer
// that isn't speaking the protocol) before allocating.
const MaxFrame = 4 << 20

// maxHandshakeFrame bounds a JSON (hello/welcome/refusal) payload. A
// hello is about 100 bytes; the bound keeps an unauthenticated peer
// that declares a large frame and then stalls from pinning MaxFrame
// bytes per connection.
const maxHandshakeFrame = 4 << 10

// Frame types. A session is: client sends TypeHello, server answers
// TypeWelcome (or TypeError and closes); then any number of
// TypeChunk→TypeResult and TypePing→TypePong exchanges.
const (
	TypeHello   = "hello"
	TypeWelcome = "welcome"
	TypeChunk   = "chunk"
	TypeResult  = "result"
	TypePing    = "ping"
	TypePong    = "pong"
	TypeError   = "error"
)

// Wire errors.
var (
	// ErrFrameTooLarge reports a frame whose declared length exceeds
	// its bound (read side) or whose encoding would (write side).
	ErrFrameTooLarge = errors.New("farm: frame exceeds its size bound")
	// ErrVersionMismatch reports a handshake with an incompatible peer.
	ErrVersionMismatch = errors.New("farm: protocol version mismatch")
)

// ModelTooLargeError reports a coverage model whose dense per-event
// hit-count array cannot fit a legal frame: the dispatcher refuses the
// chunk before sending rather than shipping a request whose reply
// would be unreadable, and a server refuses in-band for the same
// reason. It is a typed error (not a bare ErrFrameTooLarge) so callers
// can distinguish "this model can never travel" from a transient
// garbage frame.
type ModelTooLargeError struct {
	// Events is the model's event count; MaxEvents is the largest
	// count whose worst-case result payload fits MaxFrame.
	Events, MaxEvents int
}

func (e *ModelTooLargeError) Error() string {
	return fmt.Sprintf("farm: coverage model with %d events exceeds frame capacity (max %d events per %d-byte frame)",
		e.Events, e.MaxEvents, MaxFrame)
}

// maxVarint64 is the worst-case encoded size of one uvarint field.
const maxVarint64 = binary.MaxVarintLen64

// resultOverhead bounds every non-hits byte of a result frame: type
// byte, fixed seed, a dozen worst-case varint fields and the trace
// trailer (two varint IDs and two strings that are empty on results).
// Kept deliberately generous; it only has to be an upper bound.
const resultOverhead = 256

// maxEvents is the largest coverage-model size whose worst-case result
// frame (every hit count varint-maximal) still fits MaxFrame.
func maxEvents() int {
	return (MaxFrame - resultOverhead) / maxVarint64
}

// CheckModelFits reports whether a model of the given event count can
// travel in result frames — the size check the dispatcher runs before
// shipping a chunk and the server runs before executing one.
func CheckModelFits(events int) error {
	if max := maxEvents(); events > max {
		return &ModelTooLargeError{Events: events, MaxEvents: max}
	}
	return nil
}

// Frame is the single wire message shape; Type selects which fields are
// meaningful. A flat struct (rather than per-type messages) keeps one
// encoder and one decoder and lets readers skip frames they did not ask
// for (stale duplicates, heartbeat replies) by inspecting Type and ID
// only.
type Frame struct {
	Type string `json:"t"`
	// Version is the handshake framing version (handshakeVersion) on
	// hello and welcome.
	Version int `json:"v,omitempty"`

	// Max is the chunk-path protocol: on hello, the highest the client
	// supports; on welcome, the one the server accepted.
	Max int `json:"max,omitempty"`

	// Welcome: how many chunks the worker executes concurrently.
	Capacity int `json:"cap,omitempty"`

	// Chunk/Result/Ping/Pong correlation ID, unique per connection.
	ID uint64 `json:"id,omitempty"`

	// Chunk request: the relocatable chunk identity.
	Unit        string `json:"unit,omitempty"`
	Template    string `json:"tmpl,omitempty"`
	HasTemplate bool   `json:"has_tmpl,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	Lo          int    `json:"lo,omitempty"`
	Hi          int    `json:"hi,omitempty"`

	// Result: the chunk's aggregate (per-event hit counts + sims), or
	// Err if execution failed. Err is also used by TypeError frames.
	Hits []uint64 `json:"hits,omitempty"`
	Sims uint64   `json:"sims,omitempty"`
	Err  string   `json:"err,omitempty"`

	// Trace correlation (purely observational — no result bit depends
	// on these): the originating campaign / batch / chunk identity the
	// dispatcher stamps on chunk requests so worker-side spans line up
	// with their dispatcher-side parents in a merged fleet trace. Build
	// carries the peer's build identity on hello (client) and welcome
	// (server).
	Campaign string `json:"camp,omitempty"`
	Batch    uint64 `json:"batch,omitempty"`
	Chunk    uint64 `json:"chunk,omitempty"`
	Build    string `json:"build,omitempty"`
}

// WriteFrame encodes f as one length-prefixed JSON frame — the
// handshake encoding. The prefix and payload go out in a single Write
// call so stream wrappers that count or mutate writes (the
// fault-injection loopback) see exactly one write per frame.
func WriteFrame(w io.Writer, f *Frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("farm: encode frame: %w", err)
	}
	if len(payload) > maxHandshakeFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err = w.Write(buf)
	return err
}

// ReadFrame decodes one length-prefixed JSON handshake frame into f. It
// fails on truncated streams (io.ErrUnexpectedEOF), declared lengths
// above the handshake bound (ErrFrameTooLarge, before allocating), and
// payloads that are not a JSON frame. A clean EOF before any byte is
// io.EOF.
func ReadFrame(r io.Reader, f *Frame) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxHandshakeFrame {
		return ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	*f = Frame{}
	if err := json.Unmarshal(payload, f); err != nil {
		return fmt.Errorf("farm: decode frame: %w", err)
	}
	return nil
}

// The binary payload is a fixed layout. Multi-byte scalars are unsigned
// varints except Seed, which is fixed64 little-endian; strings are a
// varint length plus bytes. Every field of the flat Frame struct is
// always present, so any Frame round-trips exactly:
//
//	type     byte    (see the type table)
//	version  uvarint
//	max      uvarint
//	capacity uvarint
//	id       uvarint
//	unit     string
//	has_tmpl byte (0/1)
//	template string
//	seed     fixed64 LE
//	lo       uvarint
//	hi       uvarint
//	sims     uvarint
//	err      string
//	nhits    uvarint, then nhits × uvarint hit counts
//	campaign string
//	batch    uvarint
//	chunk    uvarint
//	build    string

// Binary type bytes. 0 is deliberately invalid so an all-zero payload
// is rejected.
const (
	typeHello byte = iota + 1
	typeWelcome
	typeChunk
	typeResult
	typePing
	typePong
	typeError
)

var typeToByte = map[string]byte{
	TypeHello:   typeHello,
	TypeWelcome: typeWelcome,
	TypeChunk:   typeChunk,
	TypeResult:  typeResult,
	TypePing:    typePing,
	TypePong:    typePong,
	TypeError:   typeError,
}

var byteToType = [...]string{
	typeHello:   TypeHello,
	typeWelcome: TypeWelcome,
	typeChunk:   TypeChunk,
	typeResult:  TypeResult,
	typePing:    TypePing,
	typePong:    TypePong,
	typeError:   TypeError,
}

// appendFrame appends f's binary payload to dst and returns the
// extended slice. It fails on frames the layout cannot represent
// (unknown type, negative scalar fields) rather than encoding garbage.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	tb, ok := typeToByte[f.Type]
	if !ok {
		return dst, fmt.Errorf("farm: encode: unknown frame type %q", f.Type)
	}
	if f.Version < 0 || f.Max < 0 || f.Capacity < 0 || f.Lo < 0 || f.Hi < 0 {
		return dst, fmt.Errorf("farm: encode: negative field in %q frame", f.Type)
	}
	dst = append(dst, tb)
	dst = binary.AppendUvarint(dst, uint64(f.Version))
	dst = binary.AppendUvarint(dst, uint64(f.Max))
	dst = binary.AppendUvarint(dst, uint64(f.Capacity))
	dst = binary.AppendUvarint(dst, f.ID)
	dst = appendString(dst, f.Unit)
	if f.HasTemplate {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendString(dst, f.Template)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seed)
	dst = binary.AppendUvarint(dst, uint64(f.Lo))
	dst = binary.AppendUvarint(dst, uint64(f.Hi))
	dst = binary.AppendUvarint(dst, f.Sims)
	dst = appendString(dst, f.Err)
	dst = binary.AppendUvarint(dst, uint64(len(f.Hits)))
	for _, h := range f.Hits {
		dst = binary.AppendUvarint(dst, h)
	}
	dst = appendString(dst, f.Campaign)
	dst = binary.AppendUvarint(dst, f.Batch)
	dst = binary.AppendUvarint(dst, f.Chunk)
	dst = appendString(dst, f.Build)
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// payloadReader walks a payload with sticky error state so decode code
// stays linear; every accessor is bounds-checked.
type payloadReader struct {
	p   []byte
	off int
	err error
}

func (r *payloadReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("farm: decode: truncated or malformed %s at offset %d", what, r.off)
	}
}

func (r *payloadReader) byte(what string) byte {
	if r.err != nil || r.off >= len(r.p) {
		r.fail(what)
		return 0
	}
	b := r.p[r.off]
	r.off++
	return b
}

func (r *payloadReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) varintInt(what string) int {
	v := r.uvarint(what)
	if r.err == nil && v > 1<<31-1 {
		// int fields (version, capacity, lo, hi, lengths) never
		// legitimately exceed 31 bits; reject before any conversion
		// trap. Lengths are additionally bounded by the payload.
		r.fail(what)
		return 0
	}
	return int(v)
}

func (r *payloadReader) str(what string) string {
	n := r.varintInt(what)
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.p) {
		r.fail(what)
		return ""
	}
	if n == 0 {
		return ""
	}
	s := string(r.p[r.off : r.off+n])
	r.off += n
	return s
}

func (r *payloadReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.p) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

// decodeFrame decodes one binary payload into f, reusing f's Hits
// capacity. Trailing bytes, truncated fields, unknown types and
// implausible lengths are all rejected.
func decodeFrame(p []byte, f *Frame) error {
	hits := f.Hits[:0]
	*f = Frame{}
	r := &payloadReader{p: p}
	tb := r.byte("type")
	if r.err == nil && (int(tb) >= len(byteToType) || byteToType[tb] == "") {
		return fmt.Errorf("farm: decode: unknown frame type byte %d", tb)
	}
	f.Type = byteToType[tb]
	f.Version = r.varintInt("version")
	f.Max = r.varintInt("max")
	f.Capacity = r.varintInt("capacity")
	f.ID = r.uvarint("id")
	f.Unit = r.str("unit")
	f.HasTemplate = r.byte("has_tmpl") != 0
	f.Template = r.str("template")
	f.Seed = r.u64("seed")
	f.Lo = r.varintInt("lo")
	f.Hi = r.varintInt("hi")
	f.Sims = r.uvarint("sims")
	f.Err = r.str("err")
	nhits := r.varintInt("nhits")
	if r.err == nil && nhits > len(p)-r.off {
		// Every hit count takes at least one byte, so a declared count
		// beyond the remaining payload is garbage — reject before
		// growing the hits buffer.
		r.fail("nhits")
	}
	if r.err == nil && nhits > 0 {
		if cap(hits) < nhits {
			hits = make([]uint64, 0, nhits)
		}
		for i := 0; i < nhits; i++ {
			hits = append(hits, r.uvarint("hit"))
		}
		f.Hits = hits[:nhits]
	}
	f.Campaign = r.str("campaign")
	f.Batch = r.uvarint("batch")
	f.Chunk = r.uvarint("chunk")
	f.Build = r.str("build")
	if r.err != nil {
		return r.err
	}
	if r.off != len(p) {
		return fmt.Errorf("farm: decode: %d trailing bytes after %q frame", len(p)-r.off, f.Type)
	}
	return nil
}

// codec moves binary frames on one connection. A connection is owned by
// exactly one goroutine at a time (dispatcher lane, heartbeater, or
// server handler), so the codec's grow-once scratch buffers are reused
// across every frame of the session without synchronization — after
// warm-up the chunk path allocates nothing.
type codec struct {
	wbuf []byte // encode scratch: 4-byte length prefix + payload
	rbuf []byte // decode scratch: one payload
}

// write encodes f as one length-prefixed frame in a single Write call
// (the contract the fault-injection loopback counts on).
func (c *codec) write(w io.Writer, f *Frame) error {
	if cap(c.wbuf) < 4 {
		c.wbuf = make([]byte, 4, 512)
	}
	buf, err := appendFrame(c.wbuf[:4], f)
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	if len(buf)-4 > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, err = w.Write(buf)
	return err
}

// read decodes one frame into f, reusing the codec's payload scratch
// and f's Hits capacity.
func (c *codec) read(r io.Reader, f *Frame) error {
	// The header goes through the codec scratch, not a local array: a
	// local would escape through the io.Reader interface and cost one
	// heap allocation per frame.
	if cap(c.rbuf) < 4 {
		c.rbuf = make([]byte, 0, 512)
	}
	hdr := c.rbuf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	p := c.rbuf[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return decodeFrame(p, f)
}

// fillChunkFrame encodes a scheduler chunk as a request into a
// caller-owned frame: the frame's Hits capacity survives the reset, so
// a connection's reusable frame keeps its decode buffer across
// requests. The template travels as source text: Template.String() →
// template.Parse round-trips exactly, and the worker parses and compiles
// it once per chunk, about a microsecond against the chunk's simulations.
func fillChunkFrame(f *Frame, id uint64, c sim.RemoteChunk) {
	*f = Frame{
		Type:     TypeChunk,
		ID:       id,
		Unit:     c.Unit,
		Seed:     c.Seed,
		Lo:       c.Lo,
		Hi:       c.Hi,
		Hits:     f.Hits[:0],
		Campaign: c.Campaign,
		Batch:    c.Batch,
		Chunk:    c.Chunk,
	}
	if c.Template != nil {
		f.Template = c.Template.String()
		f.HasTemplate = true
	}
}

// chunkTemplate recovers the request's template; nil with HasTemplate
// unset means the batch runs the unit's pure default behavior.
func chunkTemplate(f *Frame) (*template.Template, error) {
	if !f.HasTemplate {
		return nil, nil
	}
	return template.Parse(f.Template)
}
