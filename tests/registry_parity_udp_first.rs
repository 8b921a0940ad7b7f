//! The converse of `registry_parity_scenarios_first.rs`, in its own test
//! binary because the registry is process-global: install the UDP
//! datapath's list first, then the simulator's, and require that the
//! second adds nothing.

use pcc::transport::registry;

#[test]
fn scenarios_list_registers_nothing_the_udp_list_missed() {
    pcc::udp::install_registry();
    let before = registry::names();
    assert!(
        !before.is_empty(),
        "the UDP datapath's list registers algorithms"
    );
    pcc::scenarios::install_registry();
    assert_eq!(
        registry::names(),
        before,
        "pcc_scenarios::install_registry registers names pcc_udp::install_registry does not"
    );
}
