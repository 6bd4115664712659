package lsdb

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
)

// TestUnpackReadsNothingPastEntries unpacks rows whose entries end flush
// against a page the process may not touch, at every length the differential
// test covers, as a datagram's last row does. The block half's last load of
// each eight entries reads a byte past them, so one handed a block without a
// byte behind it faults here.
func TestUnpackReadsNothingPastEntries(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rand.New(rand.NewSource(40)).Read(mem[:page])
	for _, m := range kernelLengths() {
		for p := range 5 {
			checkUnpack(t, mem[page-3*m:page], unpackTombstones(m, p))
		}
	}
}
