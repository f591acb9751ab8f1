//! The memory-mapped device interface.

use eampu::Region;
use std::any::Any;

/// A memory-mapped peripheral.
///
/// Devices occupy a [`Region`] of the physical address space; the machine
/// routes word-sized loads and stores in that region to [`Device::read`] /
/// [`Device::write`] with the offset from the region start, and polls
/// [`Device::poll_irq`] between instructions so devices can raise
/// interrupts. Because device registers live in the flat address space,
/// EA-MPU rules protect them exactly like memory — TyTAN uses this to give
/// a sensor-monitoring task exclusive access to its sensor.
pub trait Device: Any {
    /// The MMIO region the device occupies.
    fn range(&self) -> Region;

    /// Reads the 32-bit register at `offset` (bytes from region start).
    fn read(&mut self, offset: u32, now: u64) -> u32;

    /// Writes the 32-bit register at `offset`.
    fn write(&mut self, offset: u32, value: u32, now: u64);

    /// Polls for a pending interrupt; returning `Some(vector)` latches the
    /// vector in the interrupt controller.
    fn poll_irq(&mut self, _now: u64) -> Option<u8> {
        None
    }

    /// The earliest cycle at or after `now` at which polling this device
    /// could have an effect (raise an IRQ or change internal poll state),
    /// or `None` if no poll will ever matter until the device is next
    /// accessed or reconfigured.
    ///
    /// The machine's default run loop uses this to skip per-instruction
    /// polling: it guarantees [`Device::poll_irq`] is called at the first
    /// instruction boundary whose cycle count reaches the returned value,
    /// which is exactly when a per-instruction polling loop would first
    /// observe the event. The conservative default, `Some(now)`, requests a
    /// poll at every boundary and so preserves legacy behaviour for device
    /// implementations that do not override this.
    fn next_event(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    /// Upcast for downcasting to the concrete device type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting to the concrete device type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
