package journal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFramesGolden = flag.Bool("update-frames-golden", false,
	"rewrite testdata/frames.golden (ONLY for deliberate format changes)")

// The shapes of the records the flow appends (core's flow_header,
// run_start, opt_iter and run_done, and sim's
// corpus_template/sample/harvest batch record), mirrored here: the
// journal cannot import its callers. goldenCorpusHeader is the header of
// the standalone corpus journals older builds wrote; its row stays a
// framing fixture.
type (
	goldenHeader struct {
		Kind    string `json:"kind"`
		Unit    string `json:"unit"`
		Seed    uint64 `json:"seed"`
		Events  int    `json:"events"`
		CfgHash uint64 `json:"cfg_hash"`
	}
	goldenCorpusHeader struct {
		Kind            string `json:"kind"`
		Unit            string `json:"unit"`
		Seed            uint64 `json:"seed"`
		SimsPerTemplate int    `json:"sims_per_template"`
		Events          int    `json:"events"`
	}
	goldenBatch struct {
		I       int      `json:"i"`
		Name    string   `json:"name,omitempty"`
		Hits    []uint64 `json:"hits"`
		Sims    uint64   `json:"sims"`
		Batches uint64   `json:"batches"`
		EnvSims uint64   `json:"env_sims"`
	}
	goldenRunStart struct {
		Targets       []int     `json:"targets"`
		ApproxEvents  []int     `json:"approx_events"`
		ApproxWeights []float64 `json:"approx_weights"`
	}
	goldenOptIter struct {
		Engine    string          `json:"engine"`
		State     json.RawMessage `json:"state"`
		PhaseHits []uint64        `json:"phase_hits"`
		PhaseSims uint64          `json:"phase_sims"`
		Batches   uint64          `json:"batches"`
		EnvSims   uint64          `json:"env_sims"`
	}
	goldenRunDone struct {
		Round     int    `json:"round"`
		TotalSims uint64 `json:"total_sims"`
	}
)

// goldenRecords are the (type, record) pairs frames.golden pins: one of
// every record the flow appends, then type strings and data that the
// JSON encoder escapes or omits.
var goldenRecords = []struct {
	typ string
	v   any
}{
	{"flow_header", goldenHeader{Kind: "flow", Unit: "iounit", Seed: 21, Events: 61, CfgHash: 0xfedcba9876543210}},
	{"corpus_header", goldenCorpusHeader{Kind: "corpus", Unit: "l3cache", Seed: 5, SimsPerTemplate: 300, Events: 96}},
	{"corpus_template", goldenBatch{I: 3, Name: "byp_heavy", Hits: []uint64{0, 7, 300, 12}, Sims: 300, Batches: 4, EnvSims: 1200}},
	{"run_start", goldenRunStart{Targets: []int{12, 13}, ApproxEvents: []int{10, 11, 12, 13}, ApproxWeights: []float64{0.25, 0.5, 1, 1e-7}}},
	{"sample", goldenBatch{I: 0, Hits: []uint64{1, 2}, Sims: 20, Batches: 9, EnvSims: 1420}},
	{"opt_iter", goldenOptIter{Engine: "implicit_filtering", State: json.RawMessage(` { "h" : 0.5,
		"x" : [1, 2.5e3] } `), PhaseHits: []uint64{4}, PhaseSims: 200, Batches: 20, EnvSims: 1620}},
	{"harvest", goldenBatch{I: 0, Name: "tmpl_best", Hits: []uint64{}, Sims: 2000, Batches: 21, EnvSims: 3620}},
	{"run_done", goldenRunDone{Round: 1, TotalSims: 3620}},
	{"a<b>&c", map[string]string{"k<&>": "v\u2028w\u2029"}},
	{"line\u2028sep", "quote\" back\\slash\ttab\x01"},
	{"nil", nil},
	{"nil_raw", json.RawMessage(nil)},
	{"empty_struct", struct{}{}},
	{"empty_slice", []int{}},
	{"empty_string", ""},
	{"empty_bytes", []byte{}},
	{"bad\xffutf8", "bad\xfe"},
}

// framesGolden renders each golden record's frame in hex, one per line.
func framesGolden(t *testing.T) string {
	var b strings.Builder
	for _, r := range goldenRecords {
		frame, err := encodeFrame(r.typ, r.v)
		if err != nil {
			t.Fatalf("encodeFrame(%q): %v", r.typ, err)
		}
		fmt.Fprintf(&b, "%q %s\n", r.typ, hex.EncodeToString(frame))
	}
	return b.String()
}

// TestFramesGolden pins the frame bytes to the file written before the
// envelope was encoded in one pass.
func TestFramesGolden(t *testing.T) {
	got := framesGolden(t)
	path := "testdata/frames.golden"
	if *updateFramesGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
}

// TestReencodeCommittedJournals re-encodes every record of the journals
// committed as fixtures by the flow and the corpus builder: each frame
// must come out byte for byte as the file holds it.
func TestReencodeCommittedJournals(t *testing.T) {
	paths, err := filepath.Glob("../*/testdata/*.journal")
	if err != nil {
		t.Fatal(err)
	}
	more, _ := filepath.Glob("../service/testdata/parent_dataroot/*/flow.journal")
	paths = append(paths, more...)
	if len(paths) < 4 {
		t.Fatalf("found only %d committed journals: %v", len(paths), paths)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		stream := data[len(Magic):]
		recs, n := DecodeAll(stream)
		if n != len(stream) || len(recs) == 0 {
			t.Fatalf("%s: decoded %d records over %d of %d bytes", path, len(recs), n, len(stream))
		}
		var again []byte
		for _, r := range recs {
			var v any
			if r.Data != nil {
				v = r.Data
			}
			frame, err := encodeFrame(r.Type, v)
			if err != nil {
				t.Fatalf("%s: %q: %v", path, r.Type, err)
			}
			again = append(again, frame...)
		}
		if !bytes.Equal(again, stream) {
			t.Errorf("%s: re-encoded frames differ from the file", path)
		}
	}
}

// TestEncodeFrameAllocs pins a batch record's frame at two allocations:
// the record's encoding and the frame.
func TestEncodeFrameAllocs(t *testing.T) {
	rec := goldenRecords[4].v
	if got := testing.AllocsPerRun(100, func() { encodeFrame("sample", rec) }); got > 2 {
		t.Errorf("encodeFrame: %v allocs per run, want at most 2", got)
	}
}
