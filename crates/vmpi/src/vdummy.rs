//! Vdummy: the trivial V-protocol.
//!
//! Paper §IV: *"Vdummy is a trivial implementation of these hooks which
//! does not provide any fault tolerance (equivalent to the MPICH-P4
//! reference implementation). It is used to measure the raw performances
//! of the generic communication layer."*

use crate::hooks::{Suite, VProtocol};
use crate::types::Rank;

/// The no-op protocol: every hook keeps its default behaviour.
pub struct Vdummy;

impl VProtocol for Vdummy {
    fn name(&self) -> String {
        "vdummy".into()
    }
}

/// Suite installing nothing and producing [`Vdummy`] protocols.
pub struct VdummySuite;

impl Suite for VdummySuite {
    fn name(&self) -> String {
        "MPICH-Vdummy".into()
    }

    fn make_protocol(&self, _rank: Rank, _n: usize) -> Box<dyn VProtocol> {
        Box::new(Vdummy)
    }
}
