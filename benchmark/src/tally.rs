//! Turning reply logs into numbers, after the clock has stopped: every
//! `Allocated` reply is compared bit for bit with the reference answer,
//! every operation is counted against its latency limit, and the phase
//! is cut into slices of a few milliseconds so that the end-to-end
//! metrics can be read from the slices the host left undisturbed.

use rqfa_core::QosClass;

use crate::drive::{Code, Entry, WindowCost};
use crate::inputs::{Arrival, Expected};
use crate::spec::Spec;

/// The `q`-quantile (0..=1) of `values`, by rank; 0 when empty.
/// Reorders `values`.
pub fn quantile<T: Copy + Ord + Into<f64>>(values: &mut [T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    let (_, value, _) = values.select_nth_unstable(rank);
    (*value).into()
}

/// The median of `values` (mean of the middle two when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// (max − min) / median: how far `values` spread around their middle.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values).abs().max(f64::MIN_POSITIVE)
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What a stretch of the measured phase counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Operations offered: reads and mutations.
    pub attempted: u64,
    /// `Outcome::Allocated` replies that match the reference.
    pub allocated: u64,
    pub shed: u64,
    /// Failed, unavailable, unanswered, refused mutations, and replies
    /// that differ from the reference.
    pub failed: u64,
    /// Operations that met their deadline or limit.
    pub met: u64,
    pub critical_attempted: u64,
    pub critical_met: u64,
    pub mutations: u64,
}

/// One window: half a second of the measured phase. Totals, the service
/// counters and the traced run's figures are kept by window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub counts: Counts,
    pub cost: Option<WindowCost>,
}

impl Window {
    pub fn throughput_rps(&self) -> f64 {
        self.cost
            .map_or(0.0, |cost| self.counts.allocated as f64 / cost.duration_s)
    }
}

/// One slice: a few milliseconds of the measured phase, short enough to
/// lie inside one of the host's quiet moments: a number of consecutive
/// replies and the time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    pub counts: Counts,
    pub duration_s: f64,
    /// Median latency of the slice's allocated CRITICAL and HIGH
    /// arrivals: the classes that are served for their latency. MEDIUM
    /// and LOW are served when there is slack and judged by their
    /// deadlines, and under overload their waits swing with every change
    /// of capacity.
    pub latency_p50_us: f64,
}

impl Slice {
    pub fn throughput_rps(&self) -> f64 {
        self.counts.allocated as f64 / self.duration_s
    }
}

/// What the slices in which the machine ran undisturbed measured: the
/// end-to-end metrics of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quiet {
    /// Slices selected, and slices there were.
    pub selected: usize,
    pub slices: usize,
    pub throughput_rps: f64,
    pub latency_p50_us: f64,
    pub met_ratio: f64,
    pub critical_met_ratio: f64,
}

/// Whole-phase figures by class and the per-call samples of a traced
/// run; kept only when asked for, because they grow with throughput.
#[derive(Debug, Default)]
pub struct Detail {
    pub class_latencies_ns: [Vec<u32>; QosClass::COUNT],
    pub class_attempted: [u64; QosClass::COUNT],
    pub class_met: [u64; QosClass::COUNT],
    pub class_shed: [u64; QosClass::COUNT],
    pub latencies_ns: Vec<u32>,
    pub call_ns: Vec<u32>,
    pub reported_us: Vec<u32>,
    /// External latency minus the service's own figure, ns.
    pub gap_ns: Vec<u32>,
    pub mutation_ack_ns: Vec<u32>,
    pub evaluated: u64,
    pub computed: u64,
}

/// How one logged operation is judged against the reference and its
/// latency limit.
#[derive(Debug, Clone, Copy)]
struct Judged {
    mutation: bool,
    class: usize,
    critical: bool,
    /// CRITICAL or HIGH.
    urgent: bool,
    allocated: bool,
    shed: bool,
    failed: bool,
    met: bool,
}

impl Counts {
    fn add(&mut self, judged: &Judged) {
        self.attempted += 1;
        self.mutations += u64::from(judged.mutation);
        self.allocated += u64::from(judged.allocated);
        self.shed += u64::from(judged.shed);
        self.failed += u64::from(judged.failed);
        self.met += u64::from(judged.met);
        self.critical_attempted += u64::from(judged.critical);
        self.critical_met += u64::from(judged.critical && judged.met);
    }
}

/// Accumulates the windows and slices of one phase.
pub struct Tally<'a> {
    spec: &'a Spec,
    arrivals: &'a [Arrival],
    /// Reference answers by arrival; `None` while the case base is being
    /// mutated under the reads (checked after quiescence instead).
    oracle: Option<&'a [Expected]>,
    pub windows: Vec<Window>,
    pub slices: Vec<Slice>,
    pub detail: Option<Detail>,
}

impl<'a> Tally<'a> {
    pub fn new(
        spec: &'a Spec,
        arrivals: &'a [Arrival],
        oracle: Option<&'a [Expected]>,
        windows: usize,
        detailed: bool,
    ) -> Tally<'a> {
        Tally {
            spec,
            arrivals,
            oracle,
            windows: vec![Window::default(); windows],
            slices: Vec::new(),
            detail: detailed.then(Detail::default),
        }
    }

    fn judge(&self, entry: &Entry) -> Judged {
        if matches!(entry.code, Code::MutationAcked | Code::MutationFailed) {
            let acked = entry.code == Code::MutationAcked;
            return Judged {
                mutation: true,
                class: 0,
                critical: false,
                urgent: false,
                allocated: false,
                shed: false,
                failed: !acked,
                met: acked,
            };
        }
        let arrival = &self.arrivals[entry.index as usize];
        let critical = arrival.class == QosClass::Critical;
        let limit_us = arrival.deadline_us.unwrap_or(if critical {
            self.spec.critical_limit_us
        } else {
            self.spec.limit_us
        });
        let shed = matches!(
            entry.code,
            Code::ShedQueueFull | Code::ShedDeadline | Code::ShedPredicted
        );
        let allocated = matches!(entry.code, Code::Allocated | Code::AllocatedCached)
            && self.oracle.is_none_or(|oracle| {
                let expected = oracle[entry.index as usize];
                expected.impl_id == entry.impl_id && expected.similarity == entry.similarity
            });
        Judged {
            mutation: false,
            class: arrival.class.index(),
            critical,
            urgent: matches!(arrival.class, QosClass::Critical | QosClass::High),
            allocated,
            shed,
            failed: !allocated && !shed,
            met: allocated && u64::from(entry.latency_ns) <= limit_us * 1_000,
        }
    }

    fn note(&mut self, entry: &Entry, judged: &Judged) {
        let Some(detail) = &mut self.detail else {
            return;
        };
        if judged.mutation {
            detail.mutation_ack_ns.push(entry.latency_ns);
            return;
        }
        detail.class_attempted[judged.class] += 1;
        detail.class_met[judged.class] += u64::from(judged.met);
        detail.class_shed[judged.class] += u64::from(judged.shed);
        if judged.allocated {
            detail.class_latencies_ns[judged.class].push(entry.latency_ns);
            detail.latencies_ns.push(entry.latency_ns);
            detail.call_ns.push(entry.call_ns);
            detail.reported_us.push(entry.reported_us);
            let reported_ns = entry.reported_us.saturating_mul(1_000);
            detail
                .gap_ns
                .push(entry.latency_ns.saturating_sub(reported_ns));
            if entry.code == Code::Allocated {
                detail.evaluated += u64::from(entry.evaluated);
                detail.computed += 1;
            }
        }
    }

    /// Folds one window's entries, which are in the order
    /// their replies were seen, into window `window` and into slices of
    /// at least `slice_ops` consecutive operations, each ending where the
    /// client next had to block: replies are seen in bursts (a client
    /// waiting for its oldest ticket sees the younger ones that overtook
    /// it all at once), and a slice cut inside a burst would be credited
    /// with work done before it began. What is left over at the end of
    /// the window (the drain among it) belongs to no slice.
    pub fn fold(&mut self, entries: &[Entry], window: usize, cost: WindowCost) {
        let slice_ops = self.spec.slice_ops.max(1);
        let mut urgent_ns: Vec<u32> = Vec::with_capacity(slice_ops);
        let mut slice = Counts::default();
        let mut slice_began_us = 0u32;
        let mut counts = Counts::default();
        for (seen, entry) in entries.iter().enumerate() {
            let judged = self.judge(entry);
            counts.add(&judged);
            slice.add(&judged);
            if judged.allocated && judged.urgent {
                urgent_ns.push(entry.latency_ns);
            }
            let blocks_next = entries.get(seen + 1).is_some_and(|next| next.blocked);
            if slice.attempted as usize >= slice_ops && blocks_next {
                let duration_us = entry.at_us.saturating_sub(slice_began_us).max(1);
                self.slices.push(Slice {
                    counts: slice,
                    duration_s: f64::from(duration_us) / 1.0e6,
                    latency_p50_us: quantile(&mut urgent_ns, 0.5) / 1_000.0,
                });
                slice = Counts::default();
                slice_began_us = entry.at_us;
                urgent_ns.clear();
            }
            self.note(entry, &judged);
        }
        self.windows[window] = Window {
            counts,
            cost: Some(cost),
        };
    }

    pub fn total(&self, field: fn(&Counts) -> u64) -> u64 {
        self.windows.iter().map(|w| field(&w.counts)).sum()
    }

    /// Allocated replies per second over the whole phase.
    pub fn overall_rps(&self) -> f64 {
        let seconds: f64 = self
            .windows
            .iter()
            .filter_map(|w| w.cost)
            .map(|c| c.duration_s)
            .sum();
        if seconds > 0.0 {
            self.total(|c| c.allocated) as f64 / seconds
        } else {
            0.0
        }
    }

    /// CPU time the process was charged per allocated reply, µs.
    pub fn cpu_us_per_req(&self) -> f64 {
        let cpu_s: f64 = self
            .windows
            .iter()
            .filter_map(|w| w.cost)
            .map(|c| c.cpu_s)
            .sum();
        cpu_s * 1.0e6 / self.total(|c| c.allocated).max(1) as f64
    }

    /// The end-to-end figures of the phase: those of its quiet slices,
    /// the `share` of all slices with the highest throughput (at least
    /// one), pooled. On a shared host a neighbour on the same core slows
    /// everything by a third to a half for anything from milliseconds to
    /// a minute; the fastest slices are the ones that ran undisturbed,
    /// and what they measured repeats from run to run where a median
    /// over the whole phase follows the neighbour.
    pub fn quiet(&self, share: f64) -> Quiet {
        let mut ranked: Vec<&Slice> = self.slices.iter().collect();
        ranked.sort_by(|a, b| b.throughput_rps().total_cmp(&a.throughput_rps()));
        let selected =
            ((ranked.len() as f64 * share).round() as usize).clamp(1, ranked.len().max(1));
        ranked.truncate(selected);
        let sum = |field: fn(&Counts) -> u64| ranked.iter().map(|s| field(&s.counts)).sum::<u64>();
        let seconds: f64 = ranked.iter().map(|s| s.duration_s).sum();
        let latencies: Vec<f64> = ranked
            .iter()
            .filter(|s| s.latency_p50_us > 0.0)
            .map(|s| s.latency_p50_us)
            .collect();
        let critical = if sum(|c| c.critical_attempted) > 0 {
            ratio(sum(|c| c.critical_met), sum(|c| c.critical_attempted))
        } else {
            ratio(
                self.total(|c| c.critical_met),
                self.total(|c| c.critical_attempted),
            )
        };
        Quiet {
            selected: ranked.len(),
            slices: self.slices.len(),
            throughput_rps: if seconds > 0.0 {
                sum(|c| c.allocated) as f64 / seconds
            } else {
                self.overall_rps()
            },
            latency_p50_us: median(&latencies),
            met_ratio: ratio(sum(|c| c.met), sum(|c| c.attempted)),
            critical_met_ratio: critical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let mut values: Vec<u32> = (1..=101).rev().collect();
        assert_eq!(quantile(&mut values, 0.5), 51.0);
        assert_eq!(quantile(&mut values, 0.99), 100.0);
        assert_eq!(quantile::<u32>(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slices_end_where_the_client_blocks_and_the_fastest_are_quiet() {
        use crate::drive::BLANK;
        use crate::inputs::Inputs;
        use crate::spec::WORKLOADS;

        let spec = Spec {
            slice_ops: 4,
            ..WORKLOADS[0]
        };
        let inputs = Inputs::generate(&spec, 1);
        // Five replies in 50 µs, five in 500 µs, two left over; the client
        // blocked before the first, the sixth and the eleventh.
        let seen_at = [10, 20, 30, 40, 50, 150, 250, 350, 450, 550, 560, 570];
        let entries: Vec<Entry> = seen_at
            .iter()
            .enumerate()
            .map(|(index, &at_us)| Entry {
                index: index as u32,
                at_us,
                latency_ns: 1_000 * (index as u32 + 1),
                code: Code::Allocated,
                blocked: index % 5 == 0,
                ..BLANK
            })
            .collect();
        let cost = WindowCost {
            duration_s: 570.0e-6,
            cpu_s: 0.0,
        };
        let mut tally = Tally::new(&spec, &inputs.arrivals, None, 1, false);
        tally.fold(&entries, 0, cost);
        assert_eq!(tally.total(|c| c.allocated), 12);
        let sizes: Vec<u64> = tally.slices.iter().map(|s| s.counts.attempted).collect();
        assert_eq!(sizes, [5, 5]);
        assert!((tally.slices[0].duration_s - 50.0e-6).abs() < 1.0e-12);
        assert!((tally.slices[1].duration_s - 500.0e-6).abs() < 1.0e-12);
        let quiet = tally.quiet(0.5);
        assert_eq!((quiet.selected, quiet.slices), (1, 2));
        assert!((quiet.throughput_rps - 100_000.0).abs() < 1.0e-6);
        assert_eq!(quiet.met_ratio, 1.0);
    }
}
