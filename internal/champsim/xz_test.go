package champsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestOpenFileContextCancelKillsXZ cancels an xz-backed read midway. The
// cancellation must kill xz (the pipe runs dry within a pipe buffer, far
// short of the stream), later reads must fail with the context's error
// rather than a clean EOF, and Close must reap the process.
func TestOpenFileContextCancelKillsXZ(t *testing.T) {
	if _, err := exec.LookPath("xz"); err != nil {
		t.Skip("xz tool not on PATH")
	}
	// 16 MiB decompressed: xz stays blocked on a full pipe long after the
	// first record is read.
	raw := bytes.Repeat([]byte("champsim-record!"), 1<<20)
	cmd := exec.Command("xz", "-1", "-c")
	cmd.Stdin = bytes.NewReader(raw)
	packed, err := cmd.Output()
	if err != nil {
		t.Fatalf("xz compress: %v", err)
	}
	path := filepath.Join(t.TempDir(), "big.champsim.xz")
	if err := os.WriteFile(path, packed, 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := OpenFileContext(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := f.(*xzPipe)
	if !ok {
		t.Fatalf("OpenFileContext returned %T for an xz file, want *xzPipe", f)
	}
	rec := make([]byte, RecordBytes)
	if _, err := io.ReadFull(f, rec); err != nil {
		t.Fatal(err)
	}
	cancel()
	if n, _ := io.Copy(io.Discard, p.out); n >= int64(len(raw))/2 {
		t.Errorf("drained %d bytes after cancel: xz kept running", n)
	}
	if _, err := f.Read(rec); !errors.Is(err, context.Canceled) {
		t.Errorf("Read after cancel = %v, want context.Canceled", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close after cancel = %v, want nil", err)
	}
	if ps := p.cmd.ProcessState; ps == nil || ps.Success() {
		t.Errorf("xz state after Close = %v, want reaped after a kill", ps)
	}
}
