//! Per-lane KV-residency ledger with cross-host migration.
//!
//! The ledger is the engine's single source of truth for "whose KV cache
//! is resident where". It accounts in *tokens* (bytes = tokens ×
//! [`kv_bytes_per_token`](genie_models::TransformerConfig::kv_bytes_per_token))
//! and enforces two invariants the property suite re-checks from the
//! event log: no lane's resident-plus-reserved bytes ever exceed its
//! capacity, and a request's KV prefix is resident on at most one lane
//! at any instant.
//!
//! Disaggregated serving adds a third state between "resident on the
//! prefill host" and "resident on the decode host": **in flight**. A
//! migration atomically removes residency at the source and reserves
//! the full footprint at the destination; the bytes are never counted
//! twice and never dropped until the transfer either lands
//! ([`complete_migration`](KvLedger::complete_migration)) or is lost to
//! a fault ([`fail_migration`](KvLedger::fail_migration) — the only
//! place bytes vanish, and the engine must then re-prefill from
//! lineage).

use std::collections::BTreeMap;

/// One KV prefix on the wire between two lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlightKv {
    /// Source lane (residency already released).
    pub from: usize,
    /// Destination lane (capacity already reserved).
    pub to: usize,
    /// Prefix length in tokens.
    pub tokens: u64,
}

/// Tracks resident KV tokens per (lane, request) against a fixed
/// per-lane byte capacity, plus prefixes in flight between lanes.
#[derive(Clone, Debug)]
pub struct KvLedger {
    capacity_bytes: u64,
    bytes_per_token: u64,
    lanes: Vec<BTreeMap<u64, u64>>,
    in_flight: BTreeMap<u64, InFlightKv>,
    peak_bytes: u64,
}

impl KvLedger {
    /// A ledger for `lanes` lanes of `capacity_bytes` each, with the
    /// model's per-token KV footprint.
    pub fn new(lanes: usize, capacity_bytes: u64, bytes_per_token: u64) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        assert!(bytes_per_token >= 1, "KV bytes per token must be positive");
        KvLedger {
            capacity_bytes,
            bytes_per_token,
            lanes: vec![BTreeMap::new(); lanes],
            in_flight: BTreeMap::new(),
            peak_bytes: 0,
        }
    }

    /// Resident tokens for `request` on `lane` (0 if absent).
    pub fn resident_tokens(&self, lane: usize, request: u64) -> u64 {
        self.lanes[lane].get(&request).copied().unwrap_or(0)
    }

    /// The lane where `request`'s prefix is resident, if any. In-flight
    /// prefixes are resident nowhere. Panics if the single-residency
    /// invariant is broken — that is an engine bug worth dying loudly on.
    pub fn host_of(&self, request: u64) -> Option<usize> {
        let mut found = None;
        for (lane, residents) in self.lanes.iter().enumerate() {
            if residents.contains_key(&request) {
                assert!(
                    found.is_none(),
                    "request {request} resident on lanes {} and {lane}",
                    found.unwrap()
                );
                found = Some(lane);
            }
        }
        found
    }

    /// Number of lanes holding `request` (the property suite asserts
    /// this never exceeds 1 without tripping [`host_of`]'s panic).
    pub fn residency_count(&self, request: u64) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.contains_key(&request))
            .count()
    }

    /// The migration in flight for `request`, if any.
    pub fn in_flight(&self, request: u64) -> Option<InFlightKv> {
        self.in_flight.get(&request).copied()
    }

    /// Tokens reserved on `lane` by inbound migrations.
    pub fn reserved_tokens(&self, lane: usize) -> u64 {
        self.in_flight
            .values()
            .filter(|m| m.to == lane)
            .map(|m| m.tokens)
            .sum()
    }

    /// Bytes charged to one lane: resident plus inbound reservations.
    /// Reserving at departure time is what makes capacity a true
    /// invariant — the destination can never be oversubscribed by bytes
    /// that are already on the wire.
    pub fn lane_bytes(&self, lane: usize) -> u64 {
        let resident: u64 = self.lanes[lane].values().sum();
        (resident + self.reserved_tokens(lane)) * self.bytes_per_token
    }

    /// Bytes resident or in flight across all lanes.
    pub fn total_bytes(&self) -> u64 {
        (0..self.lanes.len()).map(|l| self.lane_bytes(l)).sum()
    }

    /// High-water mark of [`total_bytes`](Self::total_bytes).
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Would `extra_tokens` more tokens still fit on `lane`
    /// (counting inbound reservations)?
    pub fn fits(&self, lane: usize, extra_tokens: u64) -> bool {
        self.lane_bytes(lane) + extra_tokens * self.bytes_per_token <= self.capacity_bytes
    }

    /// Set `request`'s resident token count on `lane`, updating the peak.
    pub fn set(&mut self, lane: usize, request: u64, tokens: u64) {
        self.lanes[lane].insert(request, tokens);
        self.update_peak();
    }

    /// Drop `request`'s residency on `lane`, returning the freed tokens.
    pub fn evict(&mut self, lane: usize, request: u64) -> u64 {
        self.lanes[lane].remove(&request).unwrap_or(0)
    }

    /// Start migrating `request`'s prefix from `from` to `to`: residency
    /// at the source is released and the full footprint reserved at the
    /// destination, atomically. Returns the tokens on the wire.
    ///
    /// Panics if the request is not resident on `from`, already has a
    /// migration in flight, or the destination cannot hold it — the
    /// engine must check [`fits`](Self::fits) first.
    pub fn begin_migration(&mut self, request: u64, from: usize, to: usize) -> u64 {
        assert_ne!(from, to, "migration to the same lane is a no-op bug");
        assert!(
            !self.in_flight.contains_key(&request),
            "request {request} already migrating"
        );
        let tokens = self.lanes[from]
            .remove(&request)
            .unwrap_or_else(|| panic!("request {request} not resident on lane {from}"));
        assert!(
            self.fits(to, tokens),
            "destination lane {to} cannot hold {tokens} migrated tokens"
        );
        self.in_flight
            .insert(request, InFlightKv { from, to, tokens });
        self.update_peak();
        tokens
    }

    /// The transfer landed: convert the destination reservation into
    /// residency. Returns `(to, tokens)`.
    pub fn complete_migration(&mut self, request: u64) -> (usize, u64) {
        let m = self
            .in_flight
            .remove(&request)
            .unwrap_or_else(|| panic!("request {request} has no migration in flight"));
        self.lanes[m.to].insert(request, m.tokens);
        self.update_peak();
        (m.to, m.tokens)
    }

    /// The transfer was lost to a fault: drop the reservation. The
    /// prefix is gone from every lane — the caller must re-prefill from
    /// lineage. Returns the lost migration record.
    pub fn fail_migration(&mut self, request: u64) -> InFlightKv {
        self.in_flight
            .remove(&request)
            .unwrap_or_else(|| panic!("request {request} has no migration in flight"))
    }

    fn update_peak(&mut self) {
        let total = self.total_bytes();
        if total > self.peak_bytes {
            self.peak_bytes = total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_and_peak() {
        let mut led = KvLedger::new(2, 1000, 100);
        led.set(0, 1, 3);
        led.set(1, 2, 5);
        assert_eq!(led.lane_bytes(0), 300);
        assert_eq!(led.lane_bytes(1), 500);
        assert_eq!(led.total_bytes(), 800);
        assert_eq!(led.peak_bytes(), 800);
        assert!(led.fits(0, 7));
        assert!(!led.fits(0, 8));
        assert_eq!(led.evict(1, 2), 5);
        assert_eq!(led.total_bytes(), 300);
        assert_eq!(led.peak_bytes(), 800, "peak is sticky");
        assert_eq!(led.resident_tokens(1, 2), 0);
        assert_eq!(led.evict(1, 2), 0, "double evict is a no-op");
    }

    #[test]
    fn migration_moves_residency_exactly_once() {
        let mut led = KvLedger::new(3, 1000, 100);
        led.set(2, 7, 4);
        assert_eq!(led.host_of(7), Some(2));

        let tokens = led.begin_migration(7, 2, 0);
        assert_eq!(tokens, 4);
        // On the wire: resident nowhere, reserved at the destination.
        assert_eq!(led.host_of(7), None);
        assert_eq!(led.residency_count(7), 0);
        assert_eq!(led.lane_bytes(2), 0, "source freed at departure");
        assert_eq!(led.lane_bytes(0), 400, "destination reserved");
        assert_eq!(led.total_bytes(), 400, "no bytes lost or doubled");
        assert_eq!(
            led.in_flight(7),
            Some(InFlightKv {
                from: 2,
                to: 0,
                tokens: 4
            })
        );

        let (to, landed) = led.complete_migration(7);
        assert_eq!((to, landed), (0, 4));
        assert_eq!(led.host_of(7), Some(0));
        assert_eq!(led.lane_bytes(0), 400);
        assert!(led.in_flight(7).is_none());
    }

    #[test]
    fn reservation_blocks_destination_admission() {
        let mut led = KvLedger::new(2, 1000, 100);
        led.set(1, 1, 6);
        led.begin_migration(1, 1, 0);
        // 600 of 1000 bytes reserved on lane 0: a 5-token prefix no
        // longer fits even though nothing is "resident" yet.
        assert!(!led.fits(0, 5));
        assert!(led.fits(0, 4));
        assert_eq!(led.reserved_tokens(0), 6);
    }

    #[test]
    fn failed_migration_loses_the_bytes_cleanly() {
        let mut led = KvLedger::new(2, 1000, 100);
        led.set(0, 3, 8);
        led.begin_migration(3, 0, 1);
        let lost = led.fail_migration(3);
        assert_eq!(lost.tokens, 8);
        assert_eq!(led.total_bytes(), 0, "reservation released");
        assert_eq!(led.host_of(3), None);
        assert!(led.fits(1, 10), "destination capacity fully recovered");
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn oversized_migration_panics_rather_than_oversubscribes() {
        let mut led = KvLedger::new(2, 1000, 100);
        led.set(0, 1, 8);
        led.set(1, 2, 5);
        led.begin_migration(1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "resident on lanes")]
    fn double_residency_trips_host_of() {
        let mut led = KvLedger::new(2, 1000, 100);
        led.set(0, 1, 1);
        led.set(1, 1, 1);
        led.host_of(1);
    }

    #[test]
    fn migration_peak_counts_the_wire_once() {
        let mut led = KvLedger::new(2, 1000, 100);
        led.set(0, 1, 9);
        assert_eq!(led.peak_bytes(), 900);
        led.begin_migration(1, 0, 1);
        led.complete_migration(1);
        assert_eq!(led.peak_bytes(), 900, "a move must not inflate the peak");
    }
}
