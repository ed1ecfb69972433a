package farm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/buildinfo"
	"repro/internal/duv/iounit"
	"repro/internal/sim"
	"repro/internal/template"
)

// sessionGolden holds one default session's frames as hex: hello,
// welcome, a chunk request carrying a template and a trace identity,
// its result, ping and pong. It was recorded before the chunk path lost
// its v1/v2 codecs, so matching it byte for byte is what proves a
// current peer still interoperates with a build that negotiated.
const sessionGolden = "testdata/session_golden.txt"

// tapConn records every byte written to and read from a connection.
type tapConn struct {
	net.Conn
	mu          sync.Mutex
	wrote, read bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// splitFrames cuts a byte stream into its length-prefixed frames.
func splitFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			t.Fatalf("stream ends in a %d-byte partial header", len(b))
		}
		n := 4 + int(binary.BigEndian.Uint32(b))
		if n > len(b) {
			t.Fatalf("frame of %d bytes in a %d-byte remainder", n, len(b))
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// stripBuild removes this binary's build identity from a JSON handshake
// frame, so the golden records the build string as "" and stays
// independent of the toolchain and VCS stamp.
func stripBuild(t *testing.T, frame []byte) []byte {
	t.Helper()
	id, err := json.Marshal(buildinfo.Read().Short())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Replace(frame[4:], []byte(`,"build":`+string(id)), nil, 1)
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(out, payload...)
}

// recordSession drives one default session — a real dispatcher dialing
// a real server over an in-memory pipe — through its handshake, one
// chunk and one heartbeat, and returns the frames in wire order.
func recordSession(t *testing.T) []string {
	t.Helper()
	srv := NewServer(ServerOptions{Capacity: 1})
	defer srv.Shutdown()
	var tap *tapConn
	dial := func(string) (net.Conn, error) {
		client, server := net.Pipe()
		go srv.ServeConn(server)
		tap = &tapConn{Conn: client}
		return tap, nil
	}
	d := New(nil, Options{Dial: dial})
	defer d.Close()
	w, _, err := d.dial(0, "golden")
	if err != nil {
		t.Fatal(err)
	}
	defer w.conn.Close()
	tmpl, err := template.Parse("template golden { weight Command { dma_read: 10; crc: 30; } }")
	if err != nil {
		t.Fatal(err)
	}
	c := sim.RemoteChunk{
		Unit: iounit.UnitName, Template: tmpl, Seed: 0x5eed, Lo: 4, Hi: 12,
		Events: iounit.New().Model().Size(), Campaign: "c000042", Batch: 7, Chunk: 1234,
	}
	if err := d.exchange1(w, c); err != nil {
		t.Fatal(err)
	}
	if err := d.ping(w); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	sent := splitFrames(t, tap.wrote.Bytes())
	got := splitFrames(t, tap.read.Bytes())
	if len(sent) != 3 || len(got) != 3 {
		t.Fatalf("session moved %d/%d frames, want 3/3", len(sent), len(got))
	}
	frames := []struct {
		name string
		b    []byte
	}{
		{"hello", stripBuild(t, sent[0])},
		{"welcome", stripBuild(t, got[0])},
		{"chunk", sent[1]},
		{"result", got[1]},
		{"ping", sent[2]},
		{"pong", got[2]},
	}
	lines := make([]string, len(frames))
	for i, f := range frames {
		lines[i] = fmt.Sprintf("%s %s", f.name, hex.EncodeToString(f.b))
	}
	return lines
}

// TestSessionGolden checks a default session puts exactly the recorded
// bytes on the wire.
func TestSessionGolden(t *testing.T) {
	raw, err := os.ReadFile(sessionGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := recordSession(t)
	if len(got) != len(want) {
		t.Fatalf("session has %d frames, golden %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d differs from the golden:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
