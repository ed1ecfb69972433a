// Package lease is the data-root lock of the campaign service
// (DESIGN.md §12): one exclusive kernel flock on a file, held for the
// holder's life. The kernel drops the lock when the holding process
// dies — kill -9 included — so a restarted daemon takes its root at
// once, and a second process asking for a held lock is refused with
// ErrHeld naming the holder. The lock file carries the holder's owner
// name; the lock itself, not the file's contents, is what excludes.
package lease

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// ErrHeld reports an acquisition of a lock another holder has: another
// process, or another Acquire of the same file in this one.
var ErrHeld = errors.New("lease: lock held")

// Options configures a Manager.
type Options struct {
	// Owner names the holder in every lock file it takes, so a refused
	// acquirer can say who holds the lock (required, one line).
	Owner string
}

// Manager takes locks on behalf of one owner and releases the ones it
// still holds on Close.
type Manager struct {
	owner string

	mu      sync.Mutex
	handles map[*Handle]struct{}
	closed  bool
}

// NewManager validates opts and returns a Manager.
func NewManager(opts Options) (*Manager, error) {
	if opts.Owner == "" {
		return nil, errors.New("lease: Options.Owner is required")
	}
	if strings.ContainsAny(opts.Owner, "\r\n\"") {
		return nil, fmt.Errorf("lease: invalid owner %q", opts.Owner)
	}
	return &Manager{owner: opts.Owner, handles: map[*Handle]struct{}{}}, nil
}

// Acquire takes the exclusive lock on the file name in dir, creating
// the file if need be, and writes the owner into it. It does not wait:
// a lock held elsewhere returns ErrHeld (wrapped) naming the holder the
// file records.
func (m *Manager) Acquire(dir, name string) (*Handle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("lease: manager closed")
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w by %s (%s)", ErrHeld, holder(path), path)
		}
		return nil, fmt.Errorf("lease: locking %s: %w", path, err)
	}
	if err := writeOwner(f, m.owner); err != nil {
		f.Close() // closing the descriptor drops the lock
		return nil, fmt.Errorf("lease: %s: %w", path, err)
	}
	h := &Handle{m: m, f: f}
	m.handles[h] = struct{}{}
	return h, nil
}

// writeOwner replaces the lock file's contents with owner.
func writeOwner(f *os.File, owner string) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	_, err := f.WriteAt([]byte(owner+"\n"), 0)
	return err
}

// holder is the owner a lock file names, for ErrHeld's message.
func holder(path string) string {
	data, err := os.ReadFile(path)
	if owner := strings.TrimSpace(string(data)); err == nil && owner != "" {
		return owner
	}
	return "another process"
}

// Close releases every lock the manager still holds and refuses
// further acquisitions. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	hs := make([]*Handle, 0, len(m.handles))
	for h := range m.handles {
		hs = append(hs, h)
	}
	m.mu.Unlock()
	for _, h := range hs {
		h.Release()
	}
}

// Handle is one held lock.
type Handle struct {
	m    *Manager
	f    *os.File
	once sync.Once
}

// Release drops the lock. The file stays, naming its last holder.
// Idempotent.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.m.mu.Lock()
		delete(h.m.handles, h)
		h.m.mu.Unlock()
		h.f.Close() // the last descriptor of the open file: the kernel unlocks
	})
}
