package applog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"syscall"
	"testing"

	"repro/internal/failpoint"
)

func open(t testing.TB, path string) *Log {
	t.Helper()
	l, err := Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// readAll returns the complete lines ReadNew hands back.
func readAll(t testing.TB, l *Log) []string {
	t.Helper()
	var out []string
	if err := l.ReadNew(func(line []byte) { out = append(out, string(line)) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadNewIncremental pins the reader: complete lines come back once
// each, in order, blank lines are skipped, and an unterminated tail waits
// for its terminator — even one another writer appends later.
func TestReadNewIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("a\n\n  \nb\npart"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := open(t, path)
	defer l.Close()
	if got := readAll(t, l); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("first read = %q, want [a b]", got)
	}
	if got := readAll(t, l); len(got) != 0 {
		t.Fatalf("nothing new, read %q", got)
	}
	other, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.WriteString("ial\nc\n"); err != nil {
		t.Fatal(err)
	}
	other.Close()
	if got := readAll(t, l); !reflect.DeepEqual(got, []string{"partial", "c"}) {
		t.Fatalf("second read = %q, want [partial c]", got)
	}
}

// TestAppendCapsTail pins the torn-tail rule at open: a fragment the reader
// holds is capped by the next append, never truncated, and the appended
// line reads back on its own.
func TestAppendCapsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("a\n{\"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := open(t, path)
	readAll(t, l)
	if err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, l); !reflect.DeepEqual(got, []string{`{"torn`, "b", "c"}) {
		t.Fatalf("read after capping = %q", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "a\n{\"torn\nb\nc\n" {
		t.Fatalf("file = %q", got)
	}
}

// TestAppendAfterFailure pins the in-process half of the rule: after an
// append that tore, the next append caps the fragment, and the failpoint
// sites carry the log's prefix.
func TestAppendAfterFailure(t *testing.T) {
	defer failpoint.Disarm()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l := open(t, path)
	defer l.Close()
	if err := failpoint.Arm("test.append=enospc,test.sync=err"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("torn-record")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("armed Append = %v, want ENOSPC", err)
	}
	var fe *failpoint.Error
	if err := l.Sync(); !errors.As(err, &fe) || fe.Site != "test.sync" {
		t.Fatalf("armed Sync = %v, want the test.sync failpoint", err)
	}
	failpoint.Disarm()
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, l); !reflect.DeepEqual(got, []string{"torn-r", "good"}) {
		t.Fatalf("read = %q, want the capped fragment then the record", got)
	}
}

// FuzzLogAppendAfterGarbage pins the torn-tail rule against any prior file
// contents: open, read, append one record, reopen — every complete line
// that was there comes back unchanged, and the record comes back as a
// complete line exactly once, last.
func FuzzLogAppendAfterGarbage(f *testing.F) {
	f.Add([]byte(""), []byte(`{"v":1}`))
	f.Add([]byte("a\nb\n"), []byte("rec"))
	f.Add([]byte(`{"v":1,"kind":"sub`), []byte(`{"v":1,"kind":"submit"}`))
	f.Add([]byte("x\n\n\ny"), []byte("y"))
	f.Add([]byte("\r\n \t"), []byte("rec"))
	f.Fuzz(func(t *testing.T, garbage, rec []byte) {
		if bytes.IndexByte(rec, '\n') >= 0 || len(bytes.TrimSpace(rec)) == 0 || bytes.Contains(garbage, rec) {
			t.Skip() // a record is one non-blank line not already on file
		}
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		l := open(t, path)
		before := readAll(t, l)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re := open(t, path)
		defer re.Close()
		after := readAll(t, re)
		if len(after) < len(before)+1 || !slices.Equal(after[:len(before)], before) {
			t.Fatalf("lines before the append changed:\nwas %q\nnow %q", before, after)
		}
		n := 0
		for _, line := range after {
			if line == string(rec) {
				n++
			}
		}
		if n != 1 || after[len(after)-1] != string(rec) {
			t.Fatalf("record %q came back %d times in %q, want once, last", rec, n, after)
		}
	})
}
