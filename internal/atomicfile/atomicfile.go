// Package atomicfile is the one home of the temp+fsync+rename atomic
// write pattern used everywhere a file must never be observed half
// written: stage-cache persistence (internal/core) and the directory blob
// store (internal/blob).
// A crash or kill mid-write leaves either the old file or the new one —
// never a truncated file that would poison the next reader.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteTo streams the callback's output into path atomically: the bytes
// go to a temporary file in the same directory (rename is only atomic
// within one filesystem), are fsynced, and the temporary file is renamed
// over the target with the requested permissions. On any error — from
// the callback, the sync, or the rename — the temporary file is removed
// and the target is left untouched.
func WriteTo(path string, perm os.FileMode, write func(io.Writer) error) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Chmod(perm); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	return nil
}

// WriteFile writes data to path atomically (see WriteTo).
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteTo(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
