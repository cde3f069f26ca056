//go:build linux

package depot

import (
	"os"
	"syscall"
)

const (
	fallocKeepSize  = 0x1 // FALLOC_FL_KEEP_SIZE
	fallocPunchHole = 0x2 // FALLOC_FL_PUNCH_HOLE
)

// punchHole frees the filesystem blocks under [off, off+n) of f and keeps
// the file's length: the range reads back as zeros, through the file and
// through a shared mapping alike, and no longer occupies disk.
func punchHole(f *os.File, off, n int64) error {
	if n <= 0 {
		return nil
	}
	for {
		err := syscall.Fallocate(int(f.Fd()), fallocKeepSize|fallocPunchHole, off, n)
		if err != syscall.EINTR {
			return err
		}
	}
}

// diskBytes returns the bytes the filesystem has allocated to f.
func diskBytes(f *os.File) int64 {
	var st syscall.Stat_t
	if syscall.Fstat(int(f.Fd()), &st) != nil {
		return 0
	}
	return st.Blocks * 512
}
