//! Observability span hooks: inert while no recorder is installed, and
//! emitting `Compile` and `Sweep` spans once a ring recorder is.
//!
//! Deliberately a single `#[test]` in its own integration binary: the
//! recorder hook is process-global, so the disabled half and the enabled
//! half must run in a controlled order inside one process that no other
//! test shares.

use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_obs::{Phase, RingRecorder};
use mbt_treecode::{Treecode, TreecodeParams};

#[test]
fn hooks_are_inert_until_a_recorder_is_installed() {
    let ps = uniform_cube(400, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 7);
    let tc = Treecode::new(&ps, TreecodeParams::fixed(3, 0.6)).unwrap();

    // Disabled: sweeps run, hooks cost one atomic load, nothing recorded.
    assert!(!mbt_obs::enabled());
    let base = tc.potentials();

    // Install the ring recorder; from here on every sweep emits spans.
    let rec: &'static RingRecorder = Box::leak(Box::new(RingRecorder::new(64)));
    assert!(mbt_obs::install_global(rec));
    assert!(mbt_obs::enabled());
    assert!(
        !mbt_obs::install_global(rec),
        "second installation must be rejected"
    );
    assert_eq!(
        rec.recorded(),
        0,
        "spans were recorded while the hook was disabled"
    );

    let after = tc.potentials();
    let spans = rec.spans();
    assert!(
        spans.iter().any(|s| s.phase == Phase::Sweep),
        "sweep emitted no Sweep span: {spans:?}"
    );
    assert!(
        spans.iter().any(|s| s.phase == Phase::Compile),
        "sweep emitted no Compile span: {spans:?}"
    );
    // instrumentation must not perturb results
    assert_eq!(base.values, after.values);
    assert_eq!(base.stats, after.stats);

    // clock sanity: spans sit on the process-epoch timeline
    for s in &spans {
        assert!(s.dur_ns < 60_000_000_000, "absurd duration: {s:?}");
        assert!(s.start_ns < 600_000_000_000, "absurd start: {s:?}");
    }
    assert_eq!(rec.dropped(), 0);
}
