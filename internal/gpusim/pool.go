package gpusim

// This file generalizes the simulator from one shared device to a fleet:
// a DevicePool is N independent device timelines advancing under ONE
// virtual clock. Each Device keeps one slot ledger (partition.go): the
// paper's single sequential GPU is a device of one slot, so a hold on it
// occupies the whole device, and a spatially shared device has M slots.
// Each device carries its own fault schedule and accounts its own
// occupancy so fleet experiments can report per-device utilization. The
// pool itself owns no scheduling — which queue a request joins is the
// placement layer's decision (internal/place); the pool only guards and
// measures the timelines.

import "fmt"

// Device is one execution timeline of a DevicePool: M >= 1 equal slots,
// each covered by at most one hold at a time. Acquire/Release bracket a
// hold of the whole device; AcquirePartition/ReleasePartition a hold of
// some of its slots. The zero value is an idle, detached device of one
// slot.
type Device struct {
	// ID is the device index in the pool, 0-based.
	ID int
	// Faults is the device-local fault schedule (nil when the pool was
	// built without fault injection). Device 0 replays the base injector's
	// exact schedule so single-device runs stay bit-identical.
	Faults *FaultInjector

	busyMs float64
	blocks int
	// Membership accounting for elastic fleets. attached mirrors whether
	// the device is currently part of the active set; attachedAtMs stamps
	// the current attach, and activeMs accumulates completed attach spans.
	// A fixed fleet attaches every device at 0 and never detaches, so all
	// legacy accounting is unchanged.
	attached     bool
	attachedAtMs float64
	activeMs     float64
	attaches     int
	// The slot ledger (see partition.go). slots is the ledger of a device
	// configured into M > 1 slots, nil otherwise; one is the ledger of an
	// unpartitioned device, held inline so it costs no allocation. held
	// counts active holds.
	one   [1]slot
	slots []slot
	held  int
}

// Busy reports whether any hold currently occupies the device. Per-slot
// occupancy is PartitionBusy.
func (d *Device) Busy() bool { return d.held > 0 }

// Acquire starts a hold of the whole device at nowMs. Acquiring a busy
// device panics: two blocks on one timeline is always a scheduler bug.
//
//lint:hotpath device occupancy flips once per granted block
func (d *Device) Acquire(nowMs float64) {
	if d.held > 0 {
		panic(fmt.Sprintf("gpusim: device %d acquired while busy", d.ID))
	}
	d.AcquirePartition(nowMs, 0, d.Partitions())
}

// Release ends the hold Acquire started and accounts the occupancy.
// Releasing an idle device panics.
//
//lint:hotpath device occupancy flips once per completed block
func (d *Device) Release(nowMs float64) { d.ReleasePartition(nowMs, 0) }

// BusyMs returns the accumulated occupancy in virtual milliseconds
// (completed holds only; an in-progress hold is not counted until
// Release). For occupancy as of a point in time — including in-progress
// holds — use BusyMsAt.
func (d *Device) BusyMs() float64 { return d.busyMs }

// BusyMsAt returns the occupancy accumulated up to nowMs, counting every
// in-progress hold pro-rated by its fraction. This is the numerator
// utilization measurements must use: a device halfway through one long
// block is 100% utilized, not 0%.
func (d *Device) BusyMsAt(nowMs float64) float64 {
	total := d.busyMs
	s := d.ledger()
	for p := range s {
		if k := s[p].width; k > 0 && nowMs > s[p].sinceMs {
			total += float64(k) / float64(len(s)) * (nowMs - s[p].sinceMs)
		}
	}
	return total
}

// Blocks returns the number of completed device holds.
func (d *Device) Blocks() int { return d.blocks }

// Attach marks the device part of the active fleet from nowMs. Attaching
// an attached device panics, as does attaching a busy one: membership
// flips must alternate, and a device that left the fleet cannot have kept
// a hold (Detach refuses while busy), so a busy re-attach means a hold was
// started across the detached gap and its start stamp is stale.
func (d *Device) Attach(nowMs float64) {
	if d.attached {
		panic(fmt.Sprintf("gpusim: device %d attached while attached", d.ID))
	}
	if d.held > 0 {
		panic(fmt.Sprintf("gpusim: device %d attached while busy; holds cannot span a detached gap", d.ID))
	}
	d.attached = true
	d.attachedAtMs = nowMs
	d.attaches++
}

// Detach removes the device from the active fleet at nowMs and accounts
// the attach span. Detaching while busy panics — the autoscaler must
// drain-then-release, never yank a device mid-block — as does detaching an
// already-detached device.
func (d *Device) Detach(nowMs float64) {
	if !d.attached {
		panic(fmt.Sprintf("gpusim: device %d detached while detached", d.ID))
	}
	if d.held > 0 {
		panic(fmt.Sprintf("gpusim: device %d detached while busy; drain before release", d.ID))
	}
	d.attached = false
	d.activeMs += nowMs - d.attachedAtMs
}

// Attached reports whether the device is currently in the active fleet.
func (d *Device) Attached() bool { return d.attached }

// Attaches returns how many times the device has joined the active fleet.
func (d *Device) Attaches() int { return d.attaches }

// ActiveMs returns the total time the device has been attached up to
// nowMs, including the in-progress attach span. This is the device-hours
// denominator for an elastic fleet.
func (d *Device) ActiveMs(nowMs float64) float64 {
	if d.attached && nowMs > d.attachedAtMs {
		return d.activeMs + nowMs - d.attachedAtMs
	}
	return d.activeMs
}

// Utilization returns occupancy over the time the device was actually
// attached within the horizon — not the full horizon, which would dilute
// the signal for devices added mid-run and make a fresh device look idle
// to the autoscaler. The numerator is BusyMsAt(horizonMs), so a device in
// the middle of one long block reads as occupied rather than idle (the
// completed-holds-only numerator undercounted exactly when the signal
// mattered most). For a device attached at 0 and never detached this is
// busy time / horizonMs. Returns 0 when the device has no attached time in
// the horizon; the ratio is clamped to 1.
func (d *Device) Utilization(horizonMs float64) float64 {
	if horizonMs <= 0 {
		return 0
	}
	active := d.ActiveMs(horizonMs)
	if active <= 0 {
		return 0
	}
	u := d.BusyMsAt(horizonMs) / active
	if u > 1 {
		return 1
	}
	return u
}

// DevicePool is a fleet of N device timelines under one simulator clock.
type DevicePool struct {
	sim     *Sim
	devices []*Device
}

// NewDevicePool builds n devices sharing sim's clock, all attached from
// time 0 (the fixed-fleet case). faults, when non-nil, is split per device
// with ForDevice: device 0 keeps the base schedule, others get
// decorrelated seeds. n < 1 panics.
func NewDevicePool(sim *Sim, n int, faults *FaultInjector) *DevicePool {
	return NewElasticPool(sim, n, n, faults)
}

// NewElasticPool builds max devices of which only the first active are
// attached at time 0 — the autoscaler attaches and detaches the rest as
// load moves. active == max is exactly NewDevicePool. Panics unless
// 1 <= active <= max.
func NewElasticPool(sim *Sim, max, active int, faults *FaultInjector) *DevicePool {
	if max < 1 {
		panic(fmt.Sprintf("gpusim: device pool size %d, want >= 1", max))
	}
	if active < 1 || active > max {
		panic(fmt.Sprintf("gpusim: initial active %d outside [1,%d]", active, max))
	}
	p := &DevicePool{sim: sim, devices: make([]*Device, max)}
	for i := range p.devices {
		p.devices[i] = &Device{ID: i, Faults: faults.ForDevice(i)}
		if i < active {
			p.devices[i].Attach(0)
		}
	}
	return p
}

// ConfigurePartitions splits every device in the pool into m concurrent
// partition slots (see Device.ConfigurePartitions); m <= 1 leaves each
// device one slot.
func (p *DevicePool) ConfigurePartitions(m int) {
	for _, d := range p.devices {
		d.ConfigurePartitions(m)
	}
}

// Sim returns the shared clock.
func (p *DevicePool) Sim() *Sim { return p.sim }

// Len returns the fleet size.
func (p *DevicePool) Len() int { return len(p.devices) }

// Device returns device i.
func (p *DevicePool) Device(i int) *Device { return p.devices[i] }

// Devices returns the fleet in ID order; callers must not mutate the
// slice.
func (p *DevicePool) Devices() []*Device { return p.devices }

// Attached returns the number of currently attached devices.
func (p *DevicePool) Attached() int {
	n := 0
	for _, d := range p.devices {
		if d.attached {
			n++
		}
	}
	return n
}

// DeviceHoursMs returns the fleet's total attached device-time up to
// nowMs — the cost denominator an elastic fleet is trying to shrink. For a
// fixed fleet this is exactly Len() * nowMs.
func (p *DevicePool) DeviceHoursMs(nowMs float64) float64 {
	total := 0.0
	for _, d := range p.devices {
		total += d.ActiveMs(nowMs)
	}
	return total
}
