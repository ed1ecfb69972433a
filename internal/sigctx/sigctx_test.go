package sigctx

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func sendSelf(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
}

func TestFirstSignalCancels(t *testing.T) {
	var buf syncBuffer
	ctx, stop := Notify(context.Background(), &buf)
	defer stop()
	sendSelf(t)
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not canceled by SIGINT")
	}
	if got := buf.String(); !strings.Contains(got, "shutting down (signal again to abort immediately)") || strings.Contains(got, "checkpointing") {
		t.Fatalf("stderr = %q, want a shutdown notice that promises no checkpoint", got)
	}
}

func TestSecondSignalExits(t *testing.T) {
	codes := make(chan int, 1)
	oldExit := exit
	exit = func(code int) { codes <- code; select {} }
	defer func() { exit = oldExit }()

	var buf syncBuffer
	ctx, stop := Notify(context.Background(), &buf)
	defer stop()
	sendSelf(t)
	<-ctx.Done()
	sendSelf(t)
	select {
	case code := <-codes:
		if code != 130 {
			t.Fatalf("exit code = %d, want 130", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second SIGINT did not exit")
	}
}

func TestStopReleasesHandler(t *testing.T) {
	ctx, stop := Notify(context.Background(), &syncBuffer{})
	stop()
	stop() // must be idempotent
	if ctx.Err() == nil {
		t.Fatal("stop did not cancel the context")
	}
}

// syncBuffer makes bytes.Buffer safe against the handler goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
