// Package journal implements the crash-safe run journal of the AS-CDG
// flow: an append-only, CRC-framed record stream that survives SIGKILL
// at any byte boundary.
//
// A journal file starts with an 8-byte magic and continues with frames:
//
//	4 bytes  big-endian payload length
//	4 bytes  big-endian CRC32-Castagnoli of the payload
//	payload  JSON envelope {"t": <record type>, "d": <record body>}
//
// Appends are atomic at the record level: one buffered write followed by
// fsync, so after a crash the file is a valid prefix plus at most one
// torn frame. Recover truncates the torn tail (the CRC and length checks
// reject it) and reopens the file for appending, handing the caller the
// surviving records for replay.
//
// The replay-then-append discipline is packaged as a Cursor: readers
// Take records while the journal still has history to replay, and
// Append new ones once it is exhausted. Appending while replay records
// remain is an error — it means the run diverged from the journal
// (different config, seed, or code path), and continuing would corrupt
// the stream. Open hands a run its Cursor: it decides fresh or resume
// and checks the journal's header against the run's.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"

	"repro/internal/obs"
)

// Magic identifies a journal file (8 bytes, version baked in).
const Magic = "ASCDGJ1\n"

// Tid is the Chrome-trace lane journal spans render on (after the
// flow's lane 1, workers 100+, farm RPC 200+, remote lanes 300+).
const Tid = 400

// maxFrame bounds a frame's payload so a corrupt length field cannot
// drive a giant allocation during recovery.
const maxFrame = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrNotJournal reports a file without the journal magic.
	ErrNotJournal = errors.New("journal: not a journal file")
	// ErrInjected is returned by Append after FailAppends triggers — a
	// test's stand-in for a crash mid-run.
	ErrInjected = errors.New("journal: injected append failure")
)

// Record is one decoded journal record.
type Record struct {
	Type string
	Data json.RawMessage
}

// envelope is the JSON frame payload. Recovery decodes it; encodeFrame
// writes the bytes json.Marshal would give it without building one.
type envelope struct {
	T string          `json:"t"`
	D json.RawMessage `json:"d,omitempty"`
}

// encodeFrame renders one record as a length+CRC framed payload in one
// pass: the envelope {"t":…,"d":…} is appended straight after the
// header, around the record's own encoding. That encoding is already
// compact and HTML-escaped, which is all the envelope's RawMessage
// would do to it again, so the frame is byte for byte
// json.Marshal(envelope{typ, json.Marshal(v)}) behind its header.
func encodeFrame(typ string, v any) ([]byte, error) {
	if typ == "" {
		return nil, fmt.Errorf("journal: empty record type")
	}
	var d []byte
	if v != nil {
		var err error
		if d, err = json.Marshal(v); err != nil {
			return nil, fmt.Errorf("journal: encoding %q record: %w", typ, err)
		}
	}
	frame := make([]byte, 8, 8+len(`{"t":"","d":}`)+len(typ)+len(d))
	frame = appendString(append(frame, `{"t":`...), typ)
	if d != nil {
		frame = append(append(frame, `,"d":`...), d...)
	}
	frame = append(frame, '}')
	payload := frame[8:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame, nil
}

// appendString appends s as json.Marshal encodes a string. Record types
// are plain identifiers, written as they are; anything that needs
// escaping goes through the encoder.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// DecodeAll decodes the longest valid prefix of a frame stream (the
// bytes after the magic) and returns the records plus the prefix length
// in bytes. It never panics and never errors: a short header, oversized
// or zero length, CRC mismatch, or malformed envelope simply ends the
// prefix — exactly the torn-tail discipline recovery needs.
func DecodeAll(data []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for {
		if len(data)-off < 8 {
			return recs, off
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n <= 0 || n > maxFrame || len(data)-off-8 < n {
			return recs, off
		}
		sum := binary.BigEndian.Uint32(data[off+4:])
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off
		}
		var env envelope
		if err := json.Unmarshal(payload, &env); err != nil || env.T == "" {
			return recs, off
		}
		recs = append(recs, Record{Type: env.T, Data: append(json.RawMessage(nil), env.D...)})
		off += 8 + n
	}
}

// Writer appends records to a journal file. Not safe for concurrent
// use; the flow appends from one goroutine.
type Writer struct {
	f       *os.File
	path    string
	appends int
	err     error // sticky: any failed append poisons the writer

	// Chaos-injection seam (FailAppends).
	failAfter int
	tearBytes int

	mAppends *obs.Counter
	mBytes   *obs.Counter
	tracer   *obs.Tracer
}

func newWriter(f *os.File, path string, appends int, rec *obs.Recorder) *Writer {
	w := &Writer{f: f, path: path, appends: appends, failAfter: -1}
	if rec != nil {
		w.mAppends = rec.Counter("journal.appends")
		w.mBytes = rec.Counter("journal.bytes")
		w.tracer = rec.Trace
	}
	return w
}

// Create creates (or truncates) a journal at path and writes the magic.
func Create(path string, rec *obs.Recorder) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(Magic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return newWriter(f, path, 0, rec), nil
}

// Recover reads a journal, truncates any torn tail, and reopens the
// file for appending. It returns the surviving records (for replay) and
// a writer positioned after them. The caller owns closing the writer.
// log (nil allowed) receives structured truncation/resume events.
func Recover(path string, rec *obs.Recorder, log *slog.Logger) ([]Record, *Writer, error) {
	log = obs.OrNop(log)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotJournal, path)
	}
	recs, n := DecodeAll(data[len(Magic):])
	valid := int64(len(Magic) + n)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, nil, err
	}
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		rec.Counter("journal.truncated_bytes").Add(uint64(int64(len(data)) - valid))
		log.Warn("journal: torn tail truncated",
			"path", path, "dropped_bytes", int64(len(data))-valid)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	rec.Counter("journal.recoveries").Inc()
	log.Info("journal: recovered", "path", path, "records", len(recs))
	return recs, newWriter(f, path, len(recs), rec), nil
}

// Open is the one way a run opens its journal. A missing or empty file
// is created, with header appended as its first record, of type typ. An
// existing one is recovered (Recover) and must begin with a typ record
// equal to header: a journal of another run is rejected, never replayed.
// A recovered journal with no surviving record — its writer died before
// the header reached the disk — checkpointed nothing, so it starts afresh
// like a missing one. resumed reports whether the header was replayed,
// i.e. the cursor holds the run's history. The caller closes the cursor.
func Open[H comparable](path, typ string, header H, rec *obs.Recorder, log *slog.Logger) (cur *Cursor, resumed bool, err error) {
	var (
		recs []Record
		w    *Writer
	)
	st, err := os.Stat(path)
	switch {
	case err == nil && st.Size() > 0:
		recs, w, err = Recover(path, rec, log)
	case err == nil || os.IsNotExist(err):
		w, err = Create(path, rec)
	}
	if err != nil {
		return nil, false, err
	}
	cur = NewCursor(w, recs)
	if len(recs) == 0 {
		err = cur.Append(typ, header)
	} else {
		var got H
		if resumed, err = cur.Take(typ, &got); err == nil && (!resumed || got != header) {
			err = fmt.Errorf("journal: %s belongs to another run (want %s %+v)", path, typ, header)
		}
	}
	if err != nil {
		w.Close()
		return nil, false, err
	}
	return cur, resumed, nil
}

// Append encodes one record, writes its frame in a single write, and
// fsyncs. Any failure (I/O or injected) poisons the writer:
// every later Append returns the same error, so a run can never journal
// past a crash point.
func (w *Writer) Append(typ string, v any) error {
	if w.err != nil {
		return w.err
	}
	frame, err := encodeFrame(typ, v)
	if err != nil {
		w.err = err
		return err
	}
	if w.failAfter >= 0 && w.appends >= w.failAfter {
		if w.tearBytes > 0 {
			// Simulate a crash mid-write: part of the frame reaches the
			// file, then the process "dies". Recovery must drop the tear.
			tear := w.tearBytes
			if tear >= len(frame) {
				tear = len(frame) - 1
			}
			w.f.Write(frame[:tear])
			w.f.Sync()
		}
		w.err = ErrInjected
		return w.err
	}
	sp := w.tracer.Span("journal", typ)
	if sp != nil {
		sp = sp.WithTid(Tid)
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("journal: appending %q: %w", typ, err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: syncing %q: %w", typ, err)
		return w.err
	}
	w.appends++
	w.mAppends.Inc()
	w.mBytes.Add(uint64(len(frame)))
	if sp != nil {
		sp.SetArg("bytes", len(frame))
		sp.End()
	}
	return nil
}

// Path returns the journal's file path.
func (w *Writer) Path() string { return w.path }

// FailAppends arms the chaos seam: the append with index `after`
// (0-based, counted across the journal's whole record stream) fails
// with ErrInjected. tearBytes > 0 additionally writes that many bytes
// of the doomed frame first — a torn mid-record crash; 0 is a clean
// crash at a record boundary.
func (w *Writer) FailAppends(after, tearBytes int) {
	w.failAfter = after
	w.tearBytes = tearBytes
}

// Close syncs and closes the file. Nil-safe and idempotent.
func (w *Writer) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	if w.err == nil {
		f.Sync()
	}
	return f.Close()
}

// Cursor is the replay-then-append view of a journal: Take consumes the
// recovered records in order, and Append writes new ones once replay is
// exhausted. A nil *Cursor is valid and disables journaling (Take
// reports nothing to replay, Append is a no-op), so flow code threads
// one unconditionally.
type Cursor struct {
	w    *Writer
	recs []Record
	pos  int
}

// NewCursor wraps a writer and the records recovered from it. recs is
// empty for a freshly created journal.
func NewCursor(w *Writer, recs []Record) *Cursor {
	return &Cursor{w: w, recs: recs}
}

// Take consumes the next replay record if its type matches, decoding it
// into v (when non-nil). A type mismatch or exhausted replay returns
// (false, nil) without consuming — the caller then runs the phase live.
// A record that matches the type but fails to decode is an error.
func (c *Cursor) Take(typ string, v any) (bool, error) {
	if c == nil || c.pos >= len(c.recs) {
		return false, nil
	}
	r := c.recs[c.pos]
	if r.Type != typ {
		return false, nil
	}
	if v != nil {
		if err := json.Unmarshal(r.Data, v); err != nil {
			return false, fmt.Errorf("journal: decoding %q record %d: %w", typ, c.pos, err)
		}
	}
	c.pos++
	return true, nil
}

// Append writes a new record. It is an error while replay records
// remain: the live run produced a record the journal does not have at
// this position, so the journal belongs to a different run.
func (c *Cursor) Append(typ string, v any) error {
	if c == nil {
		return nil
	}
	if c.pos < len(c.recs) {
		return fmt.Errorf("journal: appending %q while %d replay records remain (journal does not match this run; next is %q)",
			typ, len(c.recs)-c.pos, c.recs[c.pos].Type)
	}
	if c.w == nil {
		return nil
	}
	return c.w.Append(typ, v)
}

// Writer exposes the underlying writer (nil for a nil cursor) — the
// flow's kill tests arm FailAppends through it.
func (c *Cursor) Writer() *Writer {
	if c == nil {
		return nil
	}
	return c.w
}

// Close closes the underlying writer. Nil-safe.
func (c *Cursor) Close() error {
	if c == nil {
		return nil
	}
	return c.w.Close()
}
