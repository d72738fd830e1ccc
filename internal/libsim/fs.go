package libsim

import "sort"

// File is an in-memory filesystem node.
type File struct {
	Name string
	Data []byte
	Mode int64

	// shared marks Data as the slice Add was given, which the caller
	// (and every other FS it was added to) still holds: writeAt copies
	// it before the first write.
	shared bool
}

// writeAt writes data at off, zero-filling any gap past the end. A file
// still sharing the bytes it was added with copies them first, so no
// write reaches another FS.
func (f *File) writeAt(off int64, data []byte) {
	if f.shared {
		f.Data = append([]byte(nil), f.Data...)
		f.shared = false
	}
	if end := off + int64(len(data)); end > int64(len(f.Data)) {
		f.Data = append(f.Data, make([]byte, end-int64(len(f.Data)))...)
	}
	copy(f.Data[off:], data)
}

// FS is the in-memory filesystem. Paths are flat strings (the example
// servers use paths like "/www/index.html"; no directory semantics are
// needed beyond prefix naming).
type FS struct {
	files map[string]*File

	// WriteLog records every mutation with externally visible effect
	// (write, unlink, rename, fsync); the evaluation uses it to check
	// that irrecoverable operations are never silently rolled back.
	WriteLog []string
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*File)}
}

// Add creates or replaces a file with the given contents. The file keeps
// data, without copying it, until its first write, so one slice can serve
// every boot's FS; the caller must not modify data afterwards.
func (fs *FS) Add(name string, data []byte) *File {
	f := &File{Name: name, Data: data, Mode: 0644, shared: true}
	fs.files[name] = f
	return f
}

// Lookup returns the file or nil.
func (fs *FS) Lookup(name string) *File { return fs.files[name] }

// Remove deletes a file, reporting whether it existed.
func (fs *FS) Remove(name string) bool {
	if _, ok := fs.files[name]; !ok {
		return false
	}
	delete(fs.files, name)
	return true
}

// Rename moves a file, reporting whether the source existed.
func (fs *FS) Rename(from, to string) bool {
	f, ok := fs.files[from]
	if !ok {
		return false
	}
	delete(fs.files, from)
	f.Name = to
	fs.files[to] = f
	return true
}

// Names returns all file names in sorted order.
func (fs *FS) Names() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OpenFile is an open file descriptor's state.
type OpenFile struct {
	File   *File
	Offset int64
	Flags  int64
}

// Open flags (subset of fcntl.h).
const (
	ORdOnly = 0
	OWrOnly = 1
	ORdWr   = 2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)
