// Package blockdev models the storage stack under the filesystem: an
// NVMe-like device with distinct sequential and random bandwidth
// (Table 4: 1.2 GB/s sequential, 412 MB/s random) behind a blk_mq-style
// multi-queue dispatch layer (Table 1's blk_mq object lives here).
//
// The device is a shared resource: submissions that arrive while it is
// busy queue behind the in-flight work, so I/O-bound phases see real
// queueing delay in virtual time.
package blockdev

import (
	"kloc/internal/fault"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// Device is the storage device cost model. NVMe devices service
// commands across parallel internal channels; a command queues behind
// the least-busy channel, so a single slow stream does not serialize
// the whole device.
type Device struct {
	// SeqBandwidth and RandBandwidth in bytes/ns (per channel aggregate
	// share — bandwidth figures are device-wide, split across busy
	// channels implicitly by queueing).
	SeqBandwidth  float64
	RandBandwidth float64
	// CommandLatency is the fixed per-command device latency.
	CommandLatency sim.Duration
	// Channels is the internal parallelism (queue pairs); 0 means 1.
	Channels int

	// Fault, when non-nil, is consulted per command; an injected EIO
	// fails the command after it occupied the channel (the device did
	// the work and then reported failure, like a real media error).
	Fault *fault.Plane

	// busyUntil per channel: new commands start no earlier.
	busyUntil []sim.Time
}

// DefaultNVMe mirrors Table 4's 512 GB NVMe.
func DefaultNVMe() *Device {
	return &Device{
		SeqBandwidth:   1.2,
		RandBandwidth:  0.412,
		CommandLatency: 20 * sim.Microsecond,
	}
}

// SimNVMe is the Table-4 NVMe rescaled for the simulation's compressed
// timescale. Capacities are scaled 1/64 and measured runs last hundreds
// of virtual milliseconds instead of minutes, so to preserve the
// paper's ratio of I/O volume to device bandwidth per unit run time the
// device is 8x faster than its datasheet (DESIGN.md §3, §6).
func SimNVMe() *Device {
	d := DefaultNVMe()
	d.SeqBandwidth *= 8
	d.RandBandwidth *= 8
	d.CommandLatency /= 8
	d.Channels = 8
	return d
}

// TransferCost is the raw device service time for one command,
// excluding queueing.
func (d *Device) TransferCost(bytes int, sequential bool) sim.Duration {
	bw := d.RandBandwidth
	if sequential {
		bw = d.SeqBandwidth
	}
	return d.CommandLatency + sim.Duration(float64(bytes)/bw)
}

// Submit issues a command at virtual time now and returns the latency
// until completion (queueing + service) plus a device error, if any.
// The command lands on the least-busy channel; a failed command still
// occupies the channel for its full service time (the device worked,
// then reported EIO).
func (d *Device) Submit(now sim.Time, bytes int, sequential bool) (sim.Duration, error) {
	if d.busyUntil == nil {
		n := d.Channels
		if n < 1 {
			n = 1
		}
		d.busyUntil = make([]sim.Time, n)
	}
	best := 0
	for i, b := range d.busyUntil {
		if b < d.busyUntil[best] {
			best = i
		}
	}
	service := d.TransferCost(bytes, sequential)
	start := now
	if d.busyUntil[best] > start {
		start = d.busyUntil[best]
	}
	complete := start.Add(service)
	d.busyUntil[best] = complete
	if e := d.Fault.Check(fault.BlockIO, now); e != 0 {
		return complete.Sub(now), e
	}
	return complete.Sub(now), nil
}

// BusyUntil exposes the furthest channel horizon (tests and tracing).
func (d *Device) BusyUntil() sim.Time {
	var max sim.Time
	for _, b := range d.busyUntil {
		if b > max {
			max = b
		}
	}
	return max
}

// MQ is the blk_mq dispatch layer: per-CPU software queues feeding the
// device. Each submission pays a software dispatch cost and allocates a
// blk_mq request object (the caller accounts for the object via the
// kernel-object machinery; MQ only tracks counts).
type MQ struct {
	Dev *Device
	// Queues is the number of software queues (one per CPU, typically).
	Queues int
	// DispatchCost is the per-request software overhead.
	DispatchCost sim.Duration

	// Trace, when non-nil, records one blockdev.dispatch event per
	// request (the analog of block:block_rq_issue). Strictly passive.
	Trace *trace.Tracer

	// Retries counts device-failed commands that were re-driven.
	Retries uint64
	// HardFailures counts requests that exhausted their retry budget
	// and surfaced EIO to the filesystem.
	HardFailures uint64
}

// blk_mq error handling: a device EIO is treated as transient and the
// request is re-driven up to ioMaxRetries times with doubling backoff,
// mirroring the kernel's SCSI/NVMe requeue path. Only after the budget
// is exhausted does EIO surface to the caller.
const (
	ioMaxRetries                = 3
	ioRetryBackoff sim.Duration = 10 * sim.Microsecond
)

// NewMQ builds the multi-queue layer.
func NewMQ(dev *Device, queues int) *MQ {
	if queues < 1 {
		queues = 1
	}
	return &MQ{
		Dev:          dev,
		Queues:       queues,
		DispatchCost: 2 * sim.Microsecond,
	}
}

// Submit dispatches a request from the given CPU and returns total
// latency (dispatch + queueing + device service, including any retry
// attempts and backoff). A transient device EIO is retried up to
// ioMaxRetries times with doubling backoff; if every attempt fails the
// accumulated latency and EIO are returned together.
func (mq *MQ) Submit(cpu int, now sim.Time, bytes int, sequential, write bool) (sim.Duration, error) {
	q := 0
	if mq.Queues > 0 {
		q = cpu % mq.Queues
	}
	var total sim.Duration
	var err error
	backoff := ioRetryBackoff
	attempts := 0
	for {
		attempts++
		total += mq.DispatchCost
		var lat sim.Duration
		lat, err = mq.Dev.Submit(now.Add(total), bytes, sequential)
		total += lat
		if err == nil {
			break
		}
		if attempts > ioMaxRetries {
			mq.HardFailures++
			break
		}
		mq.Retries++
		total += backoff
		backoff *= 2
	}
	class := "read"
	if write {
		class = "write"
	}
	mq.Trace.Emit(trace.BlockDispatch, now, 0, uint64(attempts), class, q, int64(bytes))
	return total, err
}
