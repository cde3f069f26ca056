//go:build !linux

package depot

import (
	"errors"
	"os"
)

// punchHole does nothing where the pack engine has no hole punching, and
// says so: dead ranges keep their blocks until their whole bundle is
// deleted, and the refusals show in the punch error count.
func punchHole(f *os.File, off, n int64) error {
	if n <= 0 {
		return nil
	}
	return errors.ErrUnsupported
}

func diskBytes(f *os.File) int64 { return 0 }
