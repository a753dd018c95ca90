// Package applog is the append-only JSON Lines log under every durable file
// in the repo: the campaign journal and the sweep ledger. A Log knows lines,
// not records — callers encode and decode — and it owns the three rules
// every such file shares:
//
//   - An append is one write(2) of one whole line on an O_APPEND file, so
//     concurrent writers (ledger worker processes) never interleave bytes
//     within a line.
//   - A reader hands back complete lines only. An unterminated tail — a
//     writer mid-append, or the torn half of a write a crash cut short —
//     stays pending until its terminator arrives.
//   - A torn tail is capped, never truncated. When the last append failed
//     or the reader holds an unterminated tail, the next append leads with
//     an extra '\n', which turns the fragment into one complete line that
//     readers skip as undecodable. Truncating instead is only safe for a
//     single writer, and even then gains nothing a skip does not.
//
// A Log has no mutex: its callers already hold their own lock around every
// call, and one lock per durable type keeps the lock order flat.
package applog

import (
	"bytes"
	"io"
	"os"

	"repro/internal/failpoint"
)

// Log is one append-only JSON Lines file. Failpoint sites are named after
// the site prefix given to Open: prefix+".append" guards the line write and
// prefix+".sync" the fsync.
type Log struct {
	f          *os.File
	appendSite string
	syncSite   string
	off        int64  // bytes consumed by ReadNew so far
	pending    []byte // trailing bytes not yet terminated by '\n'
	buf        []byte // read buffer, reused across ReadNew calls
	// midLine records that the file may end mid-line: the last append
	// failed, or the last ReadNew stopped at an unterminated tail.
	midLine bool
}

// Open opens (creating if needed) the log at path for reading and
// appending. site prefixes the log's failpoint site names.
func Open(path, site string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, appendSite: site + ".append", syncSite: site + ".sync"}, nil
}

// ReadNew hands fn every complete, non-blank line appended since the last
// call (its own appends included), in file order. The slice passed to fn is
// only valid during the call. An unterminated tail stays pending for a
// later call.
func (l *Log) ReadNew(fn func(line []byte)) error {
	if l.buf == nil {
		l.buf = make([]byte, 1<<16)
	}
	for {
		n, err := l.f.ReadAt(l.buf, l.off)
		if n > 0 {
			l.off += int64(n)
			l.pending = append(l.pending, l.buf[:n]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	for {
		i := bytes.IndexByte(l.pending, '\n')
		if i < 0 {
			break
		}
		line := l.pending[:i]
		l.pending = l.pending[i+1:]
		if len(bytes.TrimSpace(line)) > 0 {
			fn(line)
		}
	}
	l.midLine = len(l.pending) > 0
	return nil
}

// Append writes line plus its terminator in one write call, leading with
// an extra '\n' when the file may end mid-line (see the package comment).
// A failed append may have torn part of the line into the file; the next
// one caps it.
func (l *Log) Append(line []byte) error {
	buf := make([]byte, 0, len(line)+2)
	if l.midLine {
		buf = append(buf, '\n')
	}
	buf = append(append(buf, line...), '\n')
	if _, err := failpoint.Write(l.appendSite, l.f, buf); err != nil {
		l.midLine = true
		return err
	}
	l.midLine = false
	return nil
}

// Sync fsyncs the log.
func (l *Log) Sync() error { return failpoint.Sync(l.syncSite, l.f) }

// Close closes the file. It does not fsync; call Sync first where the
// contract needs it.
func (l *Log) Close() error { return l.f.Close() }
