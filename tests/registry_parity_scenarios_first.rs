//! The simulator and the UDP datapath each keep a list of algorithm
//! crates to register (`pcc_scenarios::install_registry` and
//! `pcc_udp::install_registry`; neither crate depends on the other). If
//! the lists differ, a name resolves on one datapath and not the other.
//! The registry is process-global, so each install order runs in its own
//! test binary: this one installs the simulator's list first, and
//! `registry_parity_udp_first.rs` the UDP list first.

use pcc::transport::registry;

#[test]
fn udp_list_registers_nothing_the_scenarios_list_missed() {
    pcc::scenarios::install_registry();
    let before = registry::names();
    assert!(
        !before.is_empty(),
        "the simulator's list registers algorithms"
    );
    pcc::udp::install_registry();
    assert_eq!(
        registry::names(),
        before,
        "pcc_udp::install_registry registers names pcc_scenarios::install_registry does not"
    );
}
