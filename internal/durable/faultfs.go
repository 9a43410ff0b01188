package durable

import (
	"fmt"
	"os"
	"sort"
	"sync"
)

// FaultFS is an in-memory FS with crash injection: arm a byte or op budget
// and every mutation past it fails with ErrCrashed, leaving the in-memory
// files exactly as a kernel would after the process died at that point — a
// write that hits the budget mid-buffer keeps the prefix that "made it to
// disk" (a torn write). Reads never crash (the recovering process is a new
// one). Revive clears the budget so the harness can recover from the
// wreckage it just made.
//
// Sync/SyncDir are accounted as ops but do not model lost unsynced data:
// the harness kills the process, not the power, so page-cache contents
// survive. The torn-write coverage comes from the byte budget.
type FaultFS struct {
	mu    sync.Mutex
	files map[string]*fileData

	// Remaining budgets; nil = unarmed. A write of n bytes consumes n from
	// bytesLeft; every metadata mutation (create/rename/remove/truncate/
	// sync) consumes 1 from opsLeft.
	bytesLeft *int64
	opsLeft   *int

	crashed bool
	// Stats so tests can assert the injection actually fired.
	Crashes int
}

// fileData is an "inode": open handles share it, so a rename moves the
// directory entry while writes through an existing handle keep landing in
// the same data — exactly how a real fd behaves.
type fileData struct {
	buf []byte
}

// NewFaultFS returns an empty in-memory FS with no budget armed.
func NewFaultFS() *FaultFS {
	return &FaultFS{files: map[string]*fileData{}}
}

// CrashAfterBytes arms the FS to crash once n more payload bytes have been
// written; the write that crosses the budget is torn at the boundary.
func (f *FaultFS) CrashAfterBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bytesLeft = &n
	f.crashed = false
}

// CrashAfterOps arms the FS to crash once n more metadata operations have
// completed (the n+1th fails without effect).
func (f *FaultFS) CrashAfterOps(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opsLeft = &n
	f.crashed = false
}

// Revive disarms the budgets: the next Open sees the wreckage, nothing
// fails anymore.
func (f *FaultFS) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bytesLeft = nil
	f.opsLeft = nil
	f.crashed = false
}

// Crashed reports whether an injected crash has fired since the last arm.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Files returns a deep copy of the current "disk" (sorted names) so tests
// can diff directory states byte for byte.
func (f *FaultFS) Files() map[string][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]byte, len(f.files))
	for k, v := range f.files {
		out[k] = append([]byte(nil), v.buf...)
	}
	return out
}

// FileNames returns the sorted names present on the "disk".
func (f *FaultFS) FileNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.files))
	for k := range f.files {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Corrupt flips one byte of the named file (bit-rot injection for CRC
// tests). Reports whether the file existed and was long enough.
func (f *FaultFS) Corrupt(name string, off int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.files[name]
	if !ok || off < 0 || off >= int64(len(d.buf)) {
		return false
	}
	d.buf[off] ^= 0xFF
	return true
}

// crash latches the crashed state. Callers hold mu.
func (f *FaultFS) crash() error {
	if !f.crashed {
		f.crashed = true
		f.Crashes++
	}
	return ErrCrashed
}

// chargeOp consumes one metadata op from the budget; returns ErrCrashed if
// the budget is already spent. Callers hold mu.
func (f *FaultFS) chargeOp() error {
	if f.crashed {
		return ErrCrashed
	}
	if f.opsLeft != nil {
		if *f.opsLeft <= 0 {
			return f.crash()
		}
		*f.opsLeft--
	}
	return nil
}

// chargeBytes consumes up to n write bytes; returns how many "reach disk"
// and ErrCrashed if that is fewer than n (a torn write). Callers hold mu.
func (f *FaultFS) chargeBytes(n int) (int, error) {
	if f.crashed {
		return 0, ErrCrashed
	}
	if f.bytesLeft == nil {
		return n, nil
	}
	if int64(n) <= *f.bytesLeft {
		*f.bytesLeft -= int64(n)
		return n, nil
	}
	kept := int(*f.bytesLeft)
	*f.bytesLeft = 0
	return kept, f.crash()
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), d.buf...), nil
}

func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.chargeOp(); err != nil {
		return nil, err
	}
	d := &fileData{}
	f.files[name] = d
	return &faultFile{fs: f, data: d}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	d, ok := f.files[name]
	if !ok {
		if err := f.chargeOp(); err != nil {
			return nil, err
		}
		d = &fileData{}
		f.files[name] = d
	}
	return &faultFile{fs: f, data: d}, nil
}

func (f *FaultFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.chargeOp(); err != nil {
		return err
	}
	d, ok := f.files[name]
	if !ok || size > int64(len(d.buf)) {
		return fmt.Errorf("durable: truncate %s to %d: invalid", name, size)
	}
	d.buf = d.buf[:size]
	return nil
}

func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.chargeOp(); err != nil {
		return err
	}
	d, ok := f.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(f.files, oldname)
	f.files[newname] = d
	return nil
}

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; !ok {
		return nil
	}
	if err := f.chargeOp(); err != nil {
		return err
	}
	delete(f.files, name)
	return nil
}

func (f *FaultFS) SyncDir() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.chargeOp()
}

// faultFile is a write handle into the FaultFS. Writes append (Create
// truncated already; OpenAppend seeks to the end by construction) and
// follow the shared fileData across renames, like a real fd.
type faultFile struct {
	fs     *FaultFS
	data   *fileData
	closed bool
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	kept, err := h.fs.chargeBytes(len(p))
	h.data.buf = append(h.data.buf, p[:kept]...)
	if err != nil {
		return kept, err
	}
	return len(p), nil
}

func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	return h.fs.chargeOp()
}

func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
