package main

import "time"

// Host-speed calibration.
//
// On a shared host the simulator's speed drifts by up to 1.8x over tens
// of seconds as other tenants load the same cores: a branchy
// interpreter loop slows with it while plain arithmetic and memory
// loops barely move. The benchmark therefore brackets every timed op
// with a fixed interpreter loop written here, independent of the code
// under test, and scales the op's time by calibRefSeconds over the
// loop's time around it. The scaled time is the op's host seconds at
// the host speed where the loop takes calibRefSeconds.

// calibRefSeconds is the calibration loop's time on an uncontended
// 2-vCPU Intel Xeon at 2.1 GHz (go1.24, linux/amd64).
const calibRefSeconds = 0.070

var calibMem = make([]uint32, 1<<20)

// calibSink keeps the loop's result live.
var calibSink uint32

// calibrate runs the calibration loop, a small register-machine
// interpreter, and returns its time in seconds.
func calibrate() float64 {
	t0 := time.Now()
	code := [16]uint8{0, 1, 2, 3, 4, 5, 6, 7, 1, 3, 5, 2, 0, 4, 6, 7}
	var r [8]uint32
	x := uint32(12345)
	pc := 0
	for i := 0; i < 20_000_000; i++ {
		op := code[pc&15]
		pc++
		switch op {
		case 0:
			r[1] += r[2] + 1
		case 1:
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			r[2] = x
		case 2:
			r[3] = calibMem[r[2]&(1<<20-1)]
		case 3:
			calibMem[r[1]&(1<<20-1)] = r[3] + r[1]
		case 4:
			if r[3]&1 == 0 {
				pc += 2
			}
		case 5:
			r[4] = r[1] * r[2]
		case 6:
			r[5] ^= r[4] >> 3
		case 7:
			r[6] += r[5]
		}
	}
	calibSink += r[6]
	return time.Since(t0).Seconds()
}

// scaled converts secs, measured while the calibration loop took cal
// seconds, to seconds at the reference host speed.
func scaled(secs, cal float64) float64 { return secs * calibRefSeconds / cal }
