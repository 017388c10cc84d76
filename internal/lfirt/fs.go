package lfirt

import (
	"bytes"
	"io"
)

// The runtime mediates all I/O: sandboxes never see host file descriptors.
// Files live in a small in-memory filesystem; pipes are byte queues that
// block readers until data or EOF arrives (§5.3: "runtime calls that
// perform file access will often end up making a system call to Linux" —
// here the memfs plays the part of Linux).

// Open flags, matching the usual POSIX bit values.
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// Errno values returned (negated) to sandboxes.
const (
	EPERM  = 1
	ENOENT = 2
	EBADF  = 9
	ECHILD = 10
	EAGAIN = 11
	ENOMEM = 12
	EACCES = 13
	EFAULT = 14
	EINVAL = 22
	EMFILE = 24
	ESPIPE = 29
	EPIPE  = 32
	ESRCH  = 3
	// IPC errnos (sockets and channels, §5.3).
	ENOTSOCK     = 88
	EMSGSIZE     = 90
	EADDRINUSE   = 98
	EISCONN      = 106
	ENOTCONN     = 107
	ECONNREFUSED = 111
)

// FS is the in-memory filesystem shared by all sandboxes of a runtime.
type FS struct {
	files map[string]*memFile
	// DenyPrefixes lists path prefixes the policy check rejects (§5.3:
	// "the runtime can disallow all access to certain directories").
	DenyPrefixes []string
}

type memFile struct {
	data []byte
}

// NewFS creates an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*memFile)}
}

// WriteFile installs a file from the host side.
func (fs *FS) WriteFile(path string, data []byte) {
	fs.files[path] = &memFile{data: append([]byte(nil), data...)}
}

// ReadFile fetches a file's contents from the host side.
func (fs *FS) ReadFile(path string) ([]byte, bool) {
	f, ok := fs.files[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

func (fs *FS) denied(path string) bool {
	for _, p := range fs.DenyPrefixes {
		if len(path) >= len(p) && path[:len(p)] == p {
			return true
		}
	}
	return false
}

// file description kinds.
type fdKind uint8

const (
	fdFile fdKind = iota
	fdPipeRead
	fdPipeWrite
	fdConsole
	fdSock
)

// FD is one open file description. Descriptions are shared across fork
// (reference counted), like Unix.
type FD struct {
	kind  fdKind
	refs  int
	file  *memFile
	pos   int64
	flags int
	pipe  *pipe
	sock  *sock
	// console output accumulates in the owning process's capture buffer
	// (and, unless the runtime runs with LocalOutput, the runtime-wide
	// Stdout/Stderr buffers too).
	console io.Writer
}

type pipe struct {
	buf     bytes.Buffer
	readers int
	writers int
}

func (fd *FD) incref() { fd.refs++ }

func (fd *FD) decref() {
	fd.refs--
	if fd.refs > 0 {
		return
	}
	switch fd.kind {
	case fdPipeRead:
		fd.pipe.readers--
	case fdPipeWrite:
		fd.pipe.writers--
	case fdSock:
		fd.sock.close()
	}
}

func (fd *FD) String() string {
	switch fd.kind {
	case fdFile:
		return "file"
	case fdPipeRead:
		return "pipe(r)"
	case fdPipeWrite:
		return "pipe(w)"
	case fdSock:
		return "sock"
	default:
		return "console"
	}
}

// write appends to the description. It returns bytes written or -errno.
func (fd *FD) write(p []byte) int64 {
	switch fd.kind {
	case fdConsole:
		fd.console.Write(p)
		return int64(len(p))
	case fdFile:
		if fd.flags&0x3 == ORdOnly {
			return -EBADF
		}
		if fd.flags&OAppend != 0 {
			fd.pos = int64(len(fd.file.data))
		}
		end := fd.pos + int64(len(p))
		for int64(len(fd.file.data)) < end {
			fd.file.data = append(fd.file.data, 0)
		}
		copy(fd.file.data[fd.pos:], p)
		fd.pos = end
		return int64(len(p))
	case fdPipeWrite:
		if fd.pipe.readers == 0 {
			return -EPIPE
		}
		fd.pipe.buf.Write(p)
		return int64(len(p))
	}
	return -EBADF
}

// peek returns the bytes a read of at most n would return, without
// consuming them, and their count: 0 for EOF, -EAGAIN when a pipe has no
// data but writers remain (the caller blocks), or -errno.
func (fd *FD) peek(n uint64) ([]byte, int64) {
	var b []byte
	switch fd.kind {
	case fdFile:
		if fd.flags&0x3 == OWrOnly {
			return nil, -EBADF
		}
		b = fd.file.data[min(fd.pos, int64(len(fd.file.data))):]
	case fdPipeRead:
		if fd.pipe.buf.Len() == 0 && fd.pipe.writers > 0 {
			return nil, -EAGAIN
		}
		b = fd.pipe.buf.Bytes()
	case fdConsole:
	default:
		return nil, -EBADF
	}
	b = b[:min(uint64(len(b)), n)]
	return b, int64(len(b))
}

// consume drops the first k bytes peek returned.
func (fd *FD) consume(k int) {
	if fd.kind == fdFile {
		fd.pos += int64(k)
	} else {
		fd.pipe.buf.Next(k)
	}
}

// fdTable is a per-process descriptor table: slot n holds descriptor n,
// nil when closed. Every walk is in descriptor order, so the order in
// which closeAll delivers EOF/EPIPE to peers is the same on every run.
type fdTable struct {
	fds [maxFDs]*FD
}

const maxFDs = 256

func newFDTable(stdout, stderr io.Writer) *fdTable {
	t := &fdTable{}
	t.fds[0] = &FD{kind: fdConsole, refs: 1, console: io.Discard} // stdin: empty console
	t.fds[1] = &FD{kind: fdConsole, refs: 1, console: stdout}
	t.fds[2] = &FD{kind: fdConsole, refs: 1, console: stderr}
	return t
}

func (t *fdTable) get(n int) *FD {
	if uint(n) >= maxFDs {
		return nil
	}
	return t.fds[n]
}

func (t *fdTable) alloc(fd *FD) int {
	for n := range t.fds {
		if t.fds[n] == nil {
			t.fds[n] = fd
			fd.incref()
			return n
		}
	}
	return -EMFILE
}

func (t *fdTable) close(n int) int64 {
	fd := t.get(n)
	if fd == nil {
		return -EBADF
	}
	fd.decref()
	t.fds[n] = nil
	return 0
}

// replace installs fd at slot n, dropping whatever was there. Used by
// the host-side pipeline wiring (Runtime.ConnectPipe/FeedInput) before
// a process starts.
func (t *fdTable) replace(n int, fd *FD) {
	if old := t.fds[n]; old != nil {
		old.decref()
	}
	t.fds[n] = fd
	fd.incref()
}

// clone duplicates the table for fork: descriptions are shared.
func (t *fdTable) clone() *fdTable {
	nt := &fdTable{fds: t.fds}
	for _, fd := range &nt.fds {
		if fd != nil {
			fd.incref()
		}
	}
	return nt
}

func (t *fdTable) closeAll() {
	for n, fd := range &t.fds {
		if fd != nil {
			fd.decref()
			t.fds[n] = nil
		}
	}
}

// errRet converts an errno constant to the uint64 register encoding of a
// negative return value.
func errRet(errno int) uint64 { return uint64(int64(-errno)) }
