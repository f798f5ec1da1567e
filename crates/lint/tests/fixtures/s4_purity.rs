// S4 fixture: a stage reaching into another stage's fields. Never
// compiled. Analyzed at crates/ran/src/stages/fixture.rs.
struct AlphaStage {
    count: u64,
}

struct BetaStage {
    count: u64,
}

snap_fields! { overlay AlphaStage { count } }
outran_simcore::snap_fields!(overlay BetaStage { count });

impl AlphaStage {
    pub fn poke(&mut self, other: &mut BetaStage, msg: &SduIngress) {
        other.count += 1; // line 16: S4 — another stage's state
        self.count = msg.bytes; // own field + typed message: clean
    }
}
