package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"
)

// FuzzJournalDecode feeds arbitrary bytes to the recovery decoder. The
// decoder must never panic, must report a prefix no longer than the
// input, and must be prefix-stable: re-decoding exactly the reported
// valid prefix yields the same records and consumes all of it.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ASCDGJ1\n"))
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 'x'})
	// A genuine frame stream as a seed.
	w := &bytes.Buffer{}
	for _, typ := range []string{"run_start", "sample", "opt_iter"} {
		frame, err := encodeFrame(typ, map[string]int{"i": len(typ)})
		if err != nil {
			f.Fatal(err)
		}
		w.Write(frame)
	}
	f.Add(w.Bytes())
	f.Add(append(w.Bytes(), 0x00, 0x00, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n := DecodeAll(data)
		if n < 0 || n > len(data) {
			t.Fatalf("DecodeAll consumed %d of %d bytes", n, len(data))
		}
		recs2, n2 := DecodeAll(data[:n])
		if n2 != n || len(recs2) != len(recs) {
			t.Fatalf("prefix instability: (%d recs, %d bytes) then (%d recs, %d bytes)",
				len(recs), n, len(recs2), n2)
		}
		for i := range recs {
			if recs[i].Type != recs2[i].Type || !bytes.Equal(recs[i].Data, recs2[i].Data) {
				t.Fatalf("record %d differs between decodes", i)
			}
			if recs[i].Type == "" {
				t.Fatalf("record %d has empty type", i)
			}
		}
	})
}

// envelopeFrame is the two-pass frame encoder encodeFrame replaced: the
// record marshalled, then the envelope marshalled around it, then both
// copied behind the header. It is the oracle of FuzzFrameMatchesEnvelope.
func envelopeFrame(typ string, v any) ([]byte, error) {
	var d json.RawMessage
	if v != nil {
		var err error
		if d, err = json.Marshal(v); err != nil {
			return nil, err
		}
	}
	payload, err := json.Marshal(envelope{T: typ, D: d})
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	return frame, nil
}

// FuzzFrameMatchesEnvelope checks the one-pass frame encoder against
// json.Marshal(envelope{…}) for any type string and record: the record
// as a string, as raw JSON (whitespace and escapes included) when it is
// valid JSON, and absent.
func FuzzFrameMatchesEnvelope(f *testing.F) {
	f.Add("sample", `{"i": 0, "hits": [1, 2]}`)
	f.Add("a<b>&c", "line\u2028sep\u2029")
	f.Add("bad\xffutf8", "\x00\x1f\"\\\x7f")
	f.Add("opt_iter", ` [ 1e3 , "<&>" , null ] `)
	f.Fuzz(func(t *testing.T, typ, record string) {
		if typ == "" {
			return
		}
		values := []any{nil, record}
		if json.Valid([]byte(record)) {
			values = append(values, json.RawMessage(record))
		}
		for _, v := range values {
			got, err := encodeFrame(typ, v)
			if err != nil {
				t.Fatalf("encodeFrame(%q, %#v): %v", typ, v, err)
			}
			want, err := envelopeFrame(typ, v)
			if err != nil {
				t.Fatalf("envelope of (%q, %#v): %v", typ, v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame of (%q, %#v):\n got %q\nwant %q", typ, v, got, want)
			}
		}
	})
}
