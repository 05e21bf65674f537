//! Link cost-model parameters.
//!
//! ResCCL models every transfer with the α–β–γ cost of Eq. (1) in the paper:
//!
//! ```text
//! T_conflict = n · z · (α + c·β) + L(z) · γ
//! ```
//!
//! * `α` — startup overhead of one transmission task (ns),
//! * `β` — inverse link bandwidth (ns per byte),
//! * `γ` — constant factor scaling the contention penalty `L(z)`,
//! * `z` — the factor by which aggregate thread-level transmission
//!   capability exceeds the link bandwidth,
//! * `L(z)` — the penalty term for performance loss caused by additional
//!   thread-block contention (applied in [`LinkParams::effective_bandwidth`]).
//!
//! A single thread block (TB) cannot saturate a fast link on its own: its
//! copy capability is bounded by `tb_bw` bytes/ns. Bandwidth therefore grows
//! with TB count until `saturation_tbs` TBs jointly match the link capacity
//! (the peak at 4 TBs in Fig. 4 of the paper) and degrades past it.

/// Nanoseconds — the simulator's time unit.
pub type Nanos = u64;

/// Gigabytes per second, converted to the internal bytes/ns representation.
/// 1 GB/s == 1 byte/ns exactly in this unit system, which keeps the numbers
/// human-readable: `bw_bytes_per_ns == bw_gb_per_s`.
pub const fn gbps_to_bytes_per_ns(gb_per_s: f64) -> f64 {
    gb_per_s
}

/// Cost-model parameters of one contention resource (link / NIC direction).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Startup overhead α of a transmission task on this link, in ns.
    pub alpha_ns: f64,
    /// Inverse bandwidth β, in ns per byte (`1.0 / (GB/s)`).
    pub beta_ns_per_byte: f64,
    /// Contention-penalty scale γ, in ns.
    pub gamma_ns: f64,
    /// Copy capability of a single TB on this path, bytes per ns.
    pub tb_bw_bytes_per_ns: f64,
    /// Number of concurrently active TBs at which aggregate TB capability
    /// equals the link bandwidth (`z* = link_bw / tb_bw`).
    pub saturation_tbs: u32,
}

impl LinkParams {
    /// Build parameters from human-friendly units.
    ///
    /// * `bandwidth_gbps` — link bandwidth in GB/s,
    /// * `alpha_us` — per-task startup latency in microseconds,
    /// * `saturation_tbs` — TBs needed to saturate the link.
    pub fn new(bandwidth_gbps: f64, alpha_us: f64, saturation_tbs: u32) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(saturation_tbs >= 1, "need at least one TB to saturate");
        let bw = gbps_to_bytes_per_ns(bandwidth_gbps);
        Self {
            alpha_ns: alpha_us * 1_000.0,
            beta_ns_per_byte: 1.0 / bw,
            gamma_ns: alpha_us * 500.0,
            tb_bw_bytes_per_ns: bw / saturation_tbs as f64,
            saturation_tbs,
        }
    }

    /// Build parameters for a pure *capacity* resource: any number of
    /// concurrent transfers fair-share the full bandwidth with no
    /// per-TB cap and no contention penalty (a GPU's aggregate NVLink
    /// port, where the NVSwitch fabric imposes no per-peer ceiling).
    pub fn shared(bandwidth_gbps: f64, alpha_us: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        let bw = gbps_to_bytes_per_ns(bandwidth_gbps);
        Self {
            alpha_ns: alpha_us * 1_000.0,
            beta_ns_per_byte: 1.0 / bw,
            gamma_ns: 0.0,
            tb_bw_bytes_per_ns: bw,
            saturation_tbs: u32::MAX,
        }
    }

    /// Link bandwidth in bytes per ns (== GB/s).
    pub fn bandwidth(&self) -> f64 {
        1.0 / self.beta_ns_per_byte
    }

    /// Serial cost of transferring `bytes` with no contention and a fully
    /// capable sender: `α + c·β` of Eq. (1).
    pub fn serial_cost_ns(&self, bytes: u64) -> f64 {
        self.alpha_ns + bytes as f64 * self.beta_ns_per_byte
    }

    /// The penalty term `L(z)`: zero until the link saturates, then growing
    /// linearly with the oversubscription (each extra TB beyond `z*` adds a
    /// fixed contention cost, the additive `L(z)·γ` reading of Eq. 1).
    /// `z` is the number of TBs concurrently driving transfers on this
    /// resource.
    fn contention_penalty(&self, z: u32) -> f64 {
        if z <= self.saturation_tbs {
            0.0
        } else {
            (z - self.saturation_tbs) as f64
        }
    }

    /// Effective aggregate bandwidth (bytes/ns) delivered by `z` concurrent
    /// TBs on this resource.
    ///
    /// * Under-saturated (`z < z*`): each TB contributes its full `tb_bw`.
    /// * Saturated (`z == z*`): the link bandwidth is reached.
    /// * Over-saturated (`z > z*`): contention shaves the aggregate by the
    ///   γ·L(z) penalty amortized over the mean task, reproducing the
    ///   downward slope of Fig. 4.
    pub fn effective_bandwidth(&self, z: u32) -> f64 {
        self.effective_bandwidth_over(z, self.bandwidth(), self.reference_chunk_ns())
    }

    /// The serial cost of a 1 MiB reference chunk, which the γ·L(z)
    /// penalty of [`Self::effective_bandwidth`] is relative to.
    pub fn reference_chunk_ns(&self) -> f64 {
        self.serial_cost_ns(1 << 20)
    }

    /// [`Self::effective_bandwidth`] over `bandwidth()` and
    /// [`Self::reference_chunk_ns`] passed in, for a caller that
    /// evaluates the curve at many loads and keeps both.
    #[inline]
    pub fn effective_bandwidth_over(&self, z: u32, bandwidth: f64, reference_chunk_ns: f64) -> f64 {
        if z == 0 {
            return 0.0;
        }
        let aggregate = (z as f64 * self.tb_bw_bytes_per_ns).min(bandwidth);
        let penalty = self.contention_penalty(z);
        if penalty == 0.0 {
            aggregate
        } else {
            // Each unit of penalty costs γ ns per "slot"; convert to a
            // multiplicative slowdown relative to the reference chunk.
            aggregate / (1.0 + penalty * self.gamma_ns / reference_chunk_ns)
        }
    }

    /// Time for one TB (of `z` concurrently active on this resource) to move
    /// `bytes`: the processor-sharing reading of Eq. (1).
    pub fn shared_cost_ns(&self, bytes: u64, z: u32) -> f64 {
        assert!(z >= 1, "at least the caller is active");
        let per_tb_bw = self.effective_bandwidth(z) / z as f64;
        self.alpha_ns + bytes as f64 / per_tb_bw
    }
}

/// Parameters of the whole fabric: intra-node, inter-node, the GPU-port
/// aggregate, and the extra hop for crossing racks in the two-tier Clos.
///
/// Two kinds of resources carry different semantics:
///
/// * **conflict resources** (per-pair NVLink channels, NIC directions) are
///   the *communication-dependency* domain of §3 — a fully-capable TB
///   (`saturation_tbs == 1`, the default 16-warp instance) saturates them
///   alone, so concurrent tasks on one of them contend (Eq. 1);
/// * **capacity resources** (the GPU's aggregate NVLink egress/ingress
///   port) only fluid-share bandwidth across many peers and never apply a
///   contention penalty (`saturation_tbs` set high).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricParams {
    /// Per-pair NVLink/NVSwitch channel parameters for intra-node
    /// GPU↔GPU transfers (conflict resource).
    pub intra: LinkParams,
    /// Aggregate GPU NVLink port parameters (capacity resource): total
    /// egress/ingress bandwidth shared across all of a GPU's peers.
    pub port: LinkParams,
    /// RoCE NIC parameters for inter-node transfers (conflict resource,
    /// shared by the GPUs attached to the NIC).
    pub inter: LinkParams,
    /// Additional latency (ns) when source and destination node hang off
    /// different ToR switches and traffic crosses the aggregation tier.
    pub cross_rack_extra_ns: f64,
    /// Servers attached to a single ToR switch.
    pub servers_per_rack: u32,
}

impl FabricParams {
    /// The A100 testbed of the paper: 300 GB/s per-GPU NVLink bandwidth via
    /// NVSwitch; 200 Gb/s (25 GB/s) RoCE NICs; inter-node startup latency
    /// ≥ 2.5× the intra-node latency (§4.3); two servers per rack.
    pub fn a100() -> Self {
        Self {
            // A per-pair NVLink stream is TB-limited: one 16-warp TB
            // drives ~75 GB/s, four saturate the 300 GB/s port — which is
            // exactly why NCCL opens multiple channels per connection.
            intra: LinkParams::new(300.0, 4.0, 4),
            port: LinkParams::shared(300.0, 4.0),
            // One TB's ~75 GB/s capability exceeds the 25 GB/s NIC line
            // rate, so a single TB saturates the NIC (saturation 1).
            inter: LinkParams::new(25.0, 10.0, 1),
            cross_rack_extra_ns: 3_000.0,
            servers_per_rack: 2,
        }
    }

    /// The heterogeneous V100 cluster of §5.2: slower NVLink (150 GB/s) and
    /// 100 Gb/s (12.5 GB/s) RoCE.
    pub fn v100() -> Self {
        Self {
            intra: LinkParams::new(150.0, 5.0, 3),
            port: LinkParams::shared(150.0, 5.0),
            inter: LinkParams::new(12.5, 12.0, 1),
            cross_rack_extra_ns: 3_500.0,
            servers_per_rack: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_cost_is_alpha_plus_c_beta() {
        let p = LinkParams::new(25.0, 10.0, 4);
        let c = 1u64 << 20; // 1 MiB
        let expect = 10_000.0 + (c as f64) / 25.0;
        assert!((p.serial_cost_ns(c) - expect).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_peaks_at_saturation() {
        let p = LinkParams::new(25.0, 10.0, 4);
        let bw: Vec<f64> = (1..=10).map(|z| p.effective_bandwidth(z)).collect();
        // Strictly increasing up to z* = 4.
        assert!(bw[0] < bw[1] && bw[1] < bw[2] && bw[2] < bw[3]);
        // Peak at 4.
        let peak = bw[3];
        assert!((peak - 25.0).abs() < 1e-9);
        // Strictly decreasing beyond.
        assert!(bw[4] < peak && bw[5] < bw[4] && bw[9] < bw[5]);
    }

    #[test]
    fn penalty_zero_below_saturation() {
        let p = LinkParams::new(300.0, 4.0, 4);
        for z in 0..=4 {
            assert_eq!(p.contention_penalty(z), 0.0);
        }
        assert!(p.contention_penalty(5) > 0.0);
        assert!(p.contention_penalty(8) > p.contention_penalty(5));
    }

    #[test]
    fn shared_cost_grows_with_contention() {
        let p = LinkParams::new(25.0, 10.0, 4);
        let c = 4u64 << 20;
        let t4 = p.shared_cost_ns(c, 4);
        let t8 = p.shared_cost_ns(c, 8);
        assert!(t8 > t4, "oversubscribed link must be slower per TB");
    }

    #[test]
    fn a100_inter_latency_at_least_2_5x_intra() {
        let f = FabricParams::a100();
        assert!(f.inter.alpha_ns >= 2.5 * f.intra.alpha_ns);
    }

    #[test]
    fn single_tb_cannot_saturate() {
        let p = LinkParams::new(25.0, 10.0, 4);
        assert!(p.effective_bandwidth(1) < p.bandwidth());
        assert!((p.effective_bandwidth(1) - 25.0 / 4.0).abs() < 1e-9);
    }
}
