package main

import "time"

// The reference kernel is a fixed piece of work with the profile of the
// code under test — a dispatch loop over a pseudo-random program with a
// data-dependent branch in every fourth instruction, working in 64 KB of
// registers — and no line in common with it. It runs before and after
// each op's timed regions; the op's times are divided by how much slower
// than refNominalMs the kernel ran there. That takes out what the machine
// does to every program (a neighbour on the sibling hyperthread, a
// frequency step), which on the reference machine moves whole runs by
// 20-30 % over minutes, and leaves what the program does.
//
// refNominalMs is what the kernel takes on the reference machine when it
// is quiet, so reported times read as milliseconds of that machine.
const (
	refSteps     = 150_000
	refNominalMs = 1.70
	refProgLen   = 1 << 14
	refRegs      = 1 << 13
)

type refInsn struct{ op, a, b, c uint16 }

var (
	refProg = func() []refInsn {
		p := make([]refInsn, refProgLen)
		x := uint64(12345)
		for i := range p {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p[i] = refInsn{uint16(x % 8), uint16(x>>8) % refRegs, uint16(x>>24) % refRegs, uint16(x>>40) % refRegs}
		}
		return p
	}()
	refReg  [refRegs]uint64
	refSink uint64 // keeps the kernel's result live
)

// refKernelMs runs the reference kernel once and returns its wall time.
func refKernelMs() float64 {
	start := time.Now()
	r := &refReg
	for i := range r { // the same work on every call
		r[i] = uint64(i)
	}
	pc := 0
	for n := 0; n < refSteps; n++ {
		in := refProg[pc%refProgLen]
		a, b, c := in.a, in.b, in.c
		switch in.op {
		case 0:
			r[a] = r[b] + r[c]
		case 1:
			r[a] = r[b] ^ r[c]
		case 2:
			r[a] = r[b]*31 + 7
		case 3:
			if r[b] > r[c] {
				pc += int(a % 16)
			}
		case 4:
			r[a] = r[b] >> (r[c] % 8)
		case 5:
			r[a] = uint64(pc) + r[b]
		case 6:
			r[a] = r[b] - r[c]
		case 7:
			if r[b]%2 == 0 {
				pc += 3
			}
		}
		pc++
	}
	refSink += r[5]
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// refScale is the factor that turns wall time into reference time,
// given the kernel's time around the region the wall time was taken in.
func refScale(refMs float64) float64 { return refNominalMs / refMs }

// refMillis converts a wall time into reference milliseconds.
func refMillis(d time.Duration, refMs float64) float64 {
	return float64(d.Nanoseconds()) / 1e6 * refScale(refMs)
}
