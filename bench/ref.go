package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// refKeys is the number of uint32 keys each of the reference kernel's
	// threads sorts: 1 MiB, within a core's private cache.
	refKeys = 1 << 18
	// refEvery is the least time between two kernel runs in a timed loop.
	refEvery = 500 * time.Millisecond
	// refNominalMs is the kernel time every timing metric is scaled to: a
	// time reads as it would on a machine where one kernel run takes this
	// long, about what it takes on the 2-vCPU machine the benchmark was
	// sized on.
	refNominalMs = 30.0
)

// refKernel is the fixed yardstick every timing metric is scaled by: one
// goroutine per GOMAXPROCS slot, each copying the same fixed random keys
// into a buffer of its own and sorting them. On a shared VM the speed of
// identical code drifts by tens of percent within minutes. Over fifteen
// minutes of such drift, this kernel's median time per 25 s window
// followed the batch match (r = 0.90), the online session (0.92) and the
// network build (0.94), where a pointer chase, random gathers or a stream
// through 64 MiB followed them at 0.50-0.81. The keys live outside the Go
// heap so that they change neither the garbage collector's pacing nor the
// retained heap.
type refKernel struct {
	mem  []byte
	keys []uint32
	bufs [procs][]uint32
}

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, (procs+1)*refKeys*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	all := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), (procs+1)*refKeys)
	k := &refKernel{mem: mem, keys: all[:refKeys]}
	for i := range k.bufs {
		k.bufs[i] = all[(i+1)*refKeys : (i+2)*refKeys]
	}
	r := rand.New(rand.NewPCG(1, 1))
	for i := range k.keys {
		k.keys[i] = r.Uint32()
	}
	return k, nil
}

// run sorts every buffer at once and returns the wall time, in ms, until
// the last one is sorted.
func (k *refKernel) run() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, b := range k.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			copy(b, k.keys)
			slices.Sort(b)
		}()
	}
	wg.Wait()
	return msSince(t0)
}

func (k *refKernel) close() { syscall.Munmap(k.mem) }
