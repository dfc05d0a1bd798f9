package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// sample is one successful operation: its kind, its latency and when it
// ended relative to the window's start, both in ns.
type sample struct {
	d, at int64
	k     kind
}

// sampleBufBytes is the address space one sample buffer reserves. Pages
// are touched only as samples arrive, so a run's memory grows with its
// operation count, up to ~11M samples per client and window.
const sampleBufBytes = 1 << 28

// sampleBuf is an append-only sample store in anonymous memory outside the
// Go heap, so the benchmark's own bookkeeping neither shows in
// heap_peak_mb nor gives the collector more to do.
type sampleBuf struct {
	mem     []byte
	s       []sample
	dropped int64 // samples that did not fit
}

func newSampleBuf() (*sampleBuf, error) {
	mem, err := syscall.Mmap(-1, 0, sampleBufBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("map sample buffer: %w", err)
	}
	n := len(mem) / int(unsafe.Sizeof(sample{}))
	return &sampleBuf{mem: mem, s: unsafe.Slice((*sample)(unsafe.Pointer(&mem[0])), n)[:0]}, nil
}

func (b *sampleBuf) add(x sample) {
	if len(b.s) == cap(b.s) {
		b.dropped++
		return
	}
	b.s = append(b.s, x)
}

func (b *sampleBuf) free() error {
	b.s = nil
	return syscall.Munmap(b.mem)
}
