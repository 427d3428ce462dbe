package snapshot

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFile checks the atomic writer's contract: the file lands
// with mode 0644 whatever CreateTemp chose, a second write replaces
// the first, and no temporary file survives in the directory.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.result.json")
	for _, data := range []string{"first version\n", "second\n"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Fatalf("content %q, want %q", got, data)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if mode := fi.Mode().Perm(); mode != 0o644 {
			t.Fatalf("mode %v, want 0644", mode)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.result.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only run.result.json", names)
	}
	if err := WriteFile(filepath.Join(dir, "missing", "x"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
