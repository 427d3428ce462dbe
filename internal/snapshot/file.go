package snapshot

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically: to a uniquely named
// temporary file in the same directory, fsynced, made mode 0644, then
// renamed over path. A crash mid-write never leaves a truncated file
// where a complete one is expected, and concurrent writers of the same
// path never share a temporary file. Every checkpoint, result and
// interference artifact goes through it.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp opens the file 0600; artifacts are shared read-only.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
