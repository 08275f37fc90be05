// Package wal implements the write-ahead log behind the durable engine: an
// append-only segmented log with per-record CRC32C framing, group-committed
// fsyncs, a torn-tail-tolerant recovery reader, and a manifest recording
// (snapshot, log position) pairs. The package is storage-generic — records
// carry opaque term strings and a score, never kg types — and every byte it
// writes goes through the FS seam below, so the crash-fault-injection tests
// run the full stack against an in-memory filesystem that loses un-synced
// writes at arbitrary byte offsets.
package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the log's view of an append-only file.
type File interface {
	io.Writer
	// Sync forces written bytes to durable storage.
	Sync() error
	Close() error
}

// FS abstracts the WAL directory: every file the durability layer touches —
// segments, snapshots, manifest — is created, read, listed, renamed and
// removed through it. DirFS is the production implementation; MemFS is the
// crash-fault-injection harness.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// List returns the names of all files in the directory.
	List() ([]string, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically replaces newName with oldName's content.
	Rename(oldName, newName string) error
	// Lock acquires the directory's exclusive-writer lock, failing fast if
	// another live process (or Log) holds it. Two writers interleaving
	// appends, checkpoints and truncations in one directory silently corrupt
	// each other's acked state — wal.Open refuses to start without the lock.
	// The returned release frees it; the os implementation's lock also dies
	// with the process, so a kill -9 never leaves a stale lock behind.
	Lock() (release func() error, err error)
}

// dirFS is the os-backed FS rooted at one directory. Create, Rename and
// Remove fsync the directory afterwards so the entry itself is durable, not
// just the file bytes.
type dirFS struct {
	dir string
}

// DirFS returns the production FS rooted at dir, creating it if missing.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &dirFS{dir: dir}, nil
}

// syncDir fsyncs the directory so a freshly created/renamed/removed entry
// survives a crash. Errors are returned — a durability layer must not
// swallow them.
func (d *dirFS) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (d *dirFS) path(name string) (string, error) {
	if name != filepath.Base(name) || name == "." || name == ".." {
		return "", fmt.Errorf("wal: invalid file name %q", name)
	}
	return filepath.Join(d.dir, name), nil
}

func (d *dirFS) Create(name string) (File, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return nil, err
	}
	if err := d.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (d *dirFS) Open(name string) (io.ReadCloser, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

func (d *dirFS) List() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

func (d *dirFS) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return err
	}
	return d.syncDir()
}

func (d *dirFS) Rename(oldName, newName string) error {
	po, err := d.path(oldName)
	if err != nil {
		return err
	}
	pn, err := d.path(newName)
	if err != nil {
		return err
	}
	if err := os.Rename(po, pn); err != nil {
		return err
	}
	return d.syncDir()
}

// lockName is the exclusive-writer lock file inside the WAL directory. The
// file persists across runs; ownership is the (advisory, kernel-held) lock
// on it, which evaporates with the owning process.
const lockName = "LOCK"

func (d *dirFS) Lock() (func() error, error) {
	f, err := os.OpenFile(filepath.Join(d.dir, lockName), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, err
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %s is owned by another live process: %w", d.dir, err)
	}
	return f.Close, nil
}

// MemFS is an in-memory FS with crash-fault injection, the harness behind
// the durability proofs. Every file tracks its synced prefix separately from
// bytes merely written, a byte budget kills the writer mid-write at an
// arbitrary offset, and Crash materialises what a real power loss could
// leave behind: all synced bytes plus an arbitrary prefix of the un-synced
// tail.
type MemFS struct {
	mu     sync.Mutex
	files  map[string]*memFile
	budget int64 // bytes that may still be written; <0 = unlimited
	failed bool  // the simulated crash has happened; every op now errors
	locked bool  // exclusive-writer lock held (a Crash view starts unlocked)
}

type memFile struct {
	durable []byte // synced prefix — survives any crash
	pending []byte // written but not synced — partially survives
}

func (m *MemFS) Lock() (func() error, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return nil, errCrashed
	}
	if m.locked {
		return nil, fmt.Errorf("wal: in-memory directory already locked by another writer")
	}
	m.locked = true
	return func() error {
		m.mu.Lock()
		m.locked = false
		m.mu.Unlock()
		return nil
	}, nil
}

// NewMemFS returns an empty in-memory FS with no write budget (writes never
// fail until SetBudget arms one).
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), budget: -1}
}

// SetBudget arms the fault: after n more written bytes, the write errors
// mid-record and every later operation fails — the process is "dead" from
// the log's point of view. n < 0 disarms.
func (m *MemFS) SetBudget(n int64) {
	m.mu.Lock()
	m.budget = n
	m.mu.Unlock()
}

// Failed reports whether the armed fault has fired.
func (m *MemFS) Failed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// errCrashed is returned by every operation after the injected fault fired.
var errCrashed = fmt.Errorf("wal: simulated crash")

// Crash returns the filesystem a recovery would find: every file's synced
// bytes plus the first keep(len(pending)) un-synced bytes, where keep picks
// how much of each file's write-back the OS happened to complete. The
// receiver is left untouched, so one recorded run can be crash-tested at
// many cut points.
func (m *MemFS) Crash(keep func(name string, pending int) int) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for name, f := range m.files {
		k := 0
		if keep != nil {
			k = keep(name, len(f.pending))
		}
		if k < 0 {
			k = 0
		}
		if k > len(f.pending) {
			k = len(f.pending)
		}
		buf := make([]byte, 0, len(f.durable)+k)
		buf = append(buf, f.durable...)
		buf = append(buf, f.pending[:k]...)
		out.files[name] = &memFile{durable: buf}
	}
	return out
}

// SyncedOnly is a Crash keep function modelling the harshest loss: nothing
// un-synced survives.
func SyncedOnly(string, int) int { return 0 }

// EverythingWritten is a Crash keep function modelling the gentlest loss:
// every written byte survives (equivalent to a process kill with the page
// cache intact).
func EverythingWritten(_ string, pending int) int { return pending }

type memHandle struct {
	fs   *MemFS
	name string
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return nil, errCrashed
	}
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return 0, errCrashed
	}
	f := m.files[h.name]
	if f == nil {
		return 0, fmt.Errorf("wal: write to removed file %q", h.name)
	}
	n := len(p)
	if m.budget >= 0 && int64(n) > m.budget {
		// The fault fires mid-write: a prefix lands in the page cache, the
		// rest never happens, and the "process" is dead.
		n = int(m.budget)
		f.pending = append(f.pending, p[:n]...)
		m.failed = true
		m.budget = 0
		return n, errCrashed
	}
	if m.budget >= 0 {
		m.budget -= int64(n)
	}
	f.pending = append(f.pending, p...)
	return n, nil
}

func (h *memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return errCrashed
	}
	f := m.files[h.name]
	if f == nil {
		return fmt.Errorf("wal: sync of removed file %q", h.name)
	}
	f.durable = append(f.durable, f.pending...)
	f.pending = nil
	return nil
}

func (h *memHandle) Close() error { return nil }

func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return nil, errCrashed
	}
	f := m.files[name]
	if f == nil {
		return nil, fmt.Errorf("wal: open %s: %w", name, os.ErrNotExist)
	}
	// No copy: Write and Sync only append, Crash builds new buffers, so the
	// bytes below the lengths published here are never rewritten. The full
	// slice expressions keep a later append out of the reader's view.
	d, p := f.durable, f.pending
	return io.NopCloser(io.MultiReader(bytes.NewReader(d[:len(d):len(d)]), bytes.NewReader(p[:len(p):len(p)]))), nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return nil, errCrashed
	}
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return errCrashed
	}
	if m.files[name] == nil {
		return fmt.Errorf("wal: remove %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return errCrashed
	}
	f := m.files[oldName]
	if f == nil {
		return fmt.Errorf("wal: rename %s: %w", oldName, os.ErrNotExist)
	}
	delete(m.files, oldName)
	m.files[newName] = f
	return nil
}
