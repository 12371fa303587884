//! Allocation counts of the broker's connect path and of a steady-state
//! bridge pump, under a counting global allocator. This is a test binary
//! of its own, so no other test's allocations can land in a count, and
//! each count covers only the thread that runs the measured code.

use bytes::Bytes;
use davide_mqtt::{Bridge, Broker, BrokerObs, QoS};
use davide_obs::ObsHub;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` while this thread counts, `None` otherwise.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    let _ = COUNT.try_with(|c| {
        if let Some((n, b)) = c.get() {
            c.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping in `note`
// only updates a const-initialised thread-local `Cell` and never
// allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result with the allocations and bytes it
/// asked for on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let r = f();
    let (n, bytes) = COUNT.with(|c| c.take()).expect("counting was on");
    (r, n, bytes)
}

#[test]
fn connecting_74_clients_allocates_no_queue_slots() {
    // `federate`'s per-federation client count, at the default depth.
    let broker = Broker::new(1 << 16);
    let (clients, n, bytes) = counted(|| {
        (0..74)
            .map(|i| broker.connect(format!("agent{i}")))
            .collect::<Vec<_>>()
    });
    assert_eq!(broker.client_count(), 74);
    assert!(
        bytes < 64 * 1024,
        "74 connects made {n} allocations of {bytes} B in all"
    );
    drop(clients);
}

#[test]
fn a_steady_state_bridge_pump_allocates_less_than_once_per_frame() {
    // One rack tick of 45 node frames crossing the uplink to a site
    // subscriber, as in a federation.
    let rack = Broker::default();
    let site = Broker::default();
    let (hub, _clock) = ObsHub::manual();
    site.set_obs(Some(BrokerObs::new(&hub, None)));
    let mut bridge =
        Bridge::connect(&rack, &site, "rack0", &["davide/+/power/#"], Some("rack0")).unwrap();
    let mut demand = site.connect("federator-demand");
    demand
        .subscribe("rack0/davide/+/power/node", QoS::AtMostOnce)
        .unwrap();
    let gateways = rack.connect("rack-gateways");
    let frames: Vec<(String, Bytes)> = (0..45)
        .map(|n| {
            let topic = format!("davide/node{n:02}/power/node");
            (topic, Bytes::from_static(b"frame payload"))
        })
        .collect();
    let mut inbox = Vec::new();
    // Warm-up: the bridge caches each prefixed topic and grows its
    // scratch; the site mailbox grows to one tick's backlog.
    gateways.publish_batch(&frames).unwrap();
    assert_eq!(bridge.pump(), 45);
    demand.drain_into(&mut inbox);
    inbox.clear();

    gateways.publish_batch(&frames).unwrap();
    let (forwarded, n, bytes) = counted(|| bridge.pump());
    assert_eq!(forwarded, 45);
    assert!(
        n < 45,
        "a 45-frame pump made {n} allocations ({bytes} B): a topic copy per frame?"
    );
    demand.drain_into(&mut inbox);
    assert_eq!(inbox.len(), 45);
}
