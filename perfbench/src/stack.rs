//! The stack decorator that measures the Local-Broadcast layer from outside.
//!
//! [`TracedStack`] wraps any [`RadioStack`] and forwards every trait method
//! to it — the provided ones (`max_lb_energy`, `energy_view`, `new_frame`,
//! `topology`) included. Relying on the trait defaults would change
//! behaviour: HyperBall would lose the topology and fall back to all-node
//! receiver sets, and a physical stack's slot counters would vanish from
//! its energy views. Only `local_broadcast` does extra work: it counts the
//! call, its senders, receivers and deliveries, and times it.

use std::time::Instant;

use radio_graph::Graph;
use radio_protocols::{Capabilities, EnergyView, LbFrame, RadioStack, Stack};

/// Counters of the calls a [`TracedStack`] forwarded.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LbCounters {
    /// Local-Broadcast calls.
    pub calls: u64,
    /// Host nanoseconds spent inside the wrapped `local_broadcast`.
    pub busy_ns: u64,
    /// Senders summed over calls.
    pub senders: u64,
    /// Receivers summed over calls.
    pub receivers: u64,
    /// Receivers that heard a message, summed over calls.
    pub delivered: u64,
}

impl LbCounters {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LbCounters) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.senders += other.senders;
        self.receivers += other.receivers;
        self.delivered += other.delivered;
    }

    /// The counter-wise difference `self − before`.
    pub fn since(&self, before: &LbCounters) -> LbCounters {
        LbCounters {
            calls: self.calls - before.calls,
            busy_ns: self.busy_ns - before.busy_ns,
            senders: self.senders - before.senders,
            receivers: self.receivers - before.receivers,
            delivered: self.delivered - before.delivered,
        }
    }

    /// `busy_ns` in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }
}

/// Read access to decorator counters, so one generic function serves plain
/// and decorated stacks: a plain [`Stack`] has counted nothing.
pub trait Probe {
    fn lb(&self) -> LbCounters;
}

impl Probe for Stack {
    fn lb(&self) -> LbCounters {
        LbCounters::default()
    }
}

impl<S> Probe for TracedStack<S> {
    fn lb(&self) -> LbCounters {
        self.counters
    }
}

/// A [`RadioStack`] that forwards to `inner` and counts and times every
/// Local-Broadcast call.
pub struct TracedStack<S> {
    inner: S,
    counters: LbCounters,
}

impl<S: RadioStack> TracedStack<S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        TracedStack {
            inner,
            counters: LbCounters::default(),
        }
    }
}

impl<S: RadioStack> RadioStack for TracedStack<S> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn global_n(&self) -> usize {
        self.inner.global_n()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn local_broadcast(&mut self, frame: &mut LbFrame) {
        let senders = frame.senders().len() as u64;
        let receivers = frame.receivers().len() as u64;
        let start = Instant::now();
        self.inner.local_broadcast(frame);
        let elapsed = start.elapsed();
        let c = &mut self.counters;
        c.busy_ns += elapsed.as_nanos() as u64;
        c.calls += 1;
        c.senders += senders;
        c.receivers += receivers;
        c.delivered += frame.delivered().len() as u64;
    }

    fn lb_energy(&self, v: usize) -> u64 {
        self.inner.lb_energy(v)
    }

    fn lb_time(&self) -> u64 {
        self.inner.lb_time()
    }

    fn max_lb_energy(&self) -> u64 {
        self.inner.max_lb_energy()
    }

    fn energy_view(&self) -> EnergyView {
        self.inner.energy_view()
    }

    fn new_frame(&self) -> LbFrame {
        self.inner.new_frame()
    }

    fn topology(&self) -> Option<&Graph> {
        self.inner.topology()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_protocols::{EnergyModel, Msg, StackBuilder};

    #[test]
    fn decorator_forwards_provided_methods_and_counts_calls() {
        let g = radio_graph::generators::path(4);
        let mut plain = StackBuilder::new(g.clone())
            .physical(EnergyModel::Uniform)
            .with_seed(3)
            .build();
        let mut traced = TracedStack::new(
            StackBuilder::new(g)
                .physical(EnergyModel::Uniform)
                .with_seed(3)
                .build(),
        );
        assert!(traced.topology().is_some());
        for net in [&mut plain as &mut dyn RadioStack, &mut traced] {
            let mut frame = net.new_frame();
            frame.add_sender(1, Msg::words(&[7]));
            frame.add_receiver(0);
            frame.add_receiver(2);
            net.local_broadcast(&mut frame);
        }
        assert_eq!(traced.energy_view(), plain.energy_view());
        assert!(traced.energy_view().physical_slots().is_some());
        assert_eq!(traced.max_lb_energy(), plain.max_lb_energy());
        let c = traced.lb();
        assert_eq!((c.calls, c.senders, c.receivers, c.delivered), (1, 1, 2, 2));
    }
}
