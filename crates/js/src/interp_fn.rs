//! The MiniJS memory interpretation function (paper Def. 3.7 for the JS
//! instantiation): interprets heap and metadata cells pointwise under a
//! logical environment, failing if distinct symbolic cells collapse.

use crate::mem::{JsConcMemory, JsSymMemory};
use gillian_core::soundness::MemoryInterpretation;
use gillian_solver::Model;

/// The interpretation function for MiniJS memories.
#[derive(Clone, Copy, Debug, Default)]
pub struct JsInterpretation;

impl MemoryInterpretation for JsInterpretation {
    type Concrete = JsConcMemory;
    type Symbolic = JsSymMemory;

    fn interpret(&self, model: &Model, sym: &JsSymMemory) -> Result<JsConcMemory, String> {
        let mut out = JsConcMemory::default();
        for (loc_e, meta_e) in sym.objects() {
            let loc = model
                .eval(loc_e)
                .map_err(|e| format!("I_JS: object {loc_e} uninterpretable: {e}"))?;
            let meta = model
                .eval(meta_e)
                .map_err(|e| format!("I_JS: metadata {meta_e} uninterpretable: {e}"))?;
            if out.insert_object(loc.clone(), meta).is_some() {
                return Err(format!("I_JS: objects collapse onto {loc}"));
            }
        }
        for (loc_e, key_e, val_e) in sym.heap_cells() {
            let loc = model
                .eval(loc_e)
                .map_err(|e| format!("I_JS: cell location {loc_e} uninterpretable: {e}"))?;
            let key = model
                .eval(key_e)
                .map_err(|e| format!("I_JS: key {key_e} uninterpretable: {e}"))?;
            let val = model
                .eval(val_e)
                .map_err(|e| format!("I_JS: value {val_e} uninterpretable: {e}"))?;
            if out.insert_cell(loc.clone(), key.clone(), val).is_some() {
                return Err(format!("I_JS: cells collapse onto {loc}[{key}]"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_core::soundness::check_action;
    use gillian_gil::{Expr, LVar, Sym, Value};
    use gillian_solver::{PathCondition, Solver};
    use std::collections::BTreeMap;

    fn loc(i: u64) -> Expr {
        Expr::Val(Value::Sym(Sym(Sym::FIRST_FRESH + i)))
    }

    #[test]
    fn interprets_pointwise() {
        let mut m = JsSymMemory::default();
        m.insert_object(loc(0), Expr::str("Object"));
        m.insert_cell(loc(0), Expr::lvar(LVar(0)), Expr::num(1.0));
        let model = Model::from_assignment(BTreeMap::from([(LVar(0), Value::str("k"))]));
        let conc = JsInterpretation.interpret(&model, &m).unwrap();
        assert_eq!(
            conc.cell(&Value::Sym(Sym(Sym::FIRST_FRESH)), &Value::str("k")),
            Some(&Value::num(1.0))
        );
    }

    #[test]
    fn collapsing_keys_are_rejected() {
        let mut m = JsSymMemory::default();
        m.insert_object(loc(0), Expr::str("Object"));
        m.insert_cell(loc(0), Expr::lvar(LVar(0)), Expr::num(1.0));
        m.insert_cell(loc(0), Expr::lvar(LVar(1)), Expr::num(2.0));
        let model = Model::from_assignment(BTreeMap::from([
            (LVar(0), Value::str("k")),
            (LVar(1), Value::str("k")),
        ]));
        assert!(JsInterpretation.interpret(&model, &m).is_err());
    }

    /// MA-RS/MA-RC for the eight JS actions on a representative memory
    /// with a symbolic key — the JS analogue of the paper's Lemma 3.11.
    #[test]
    fn js_actions_satisfy_memory_lemmas() {
        let solver = Solver::optimized();
        let mut m = JsSymMemory::default();
        m.insert_object(loc(0), Expr::str("Object"));
        m.insert_cell(loc(0), Expr::str("a"), Expr::num(1.0));
        m.insert_cell(loc(0), Expr::lvar(LVar(1)), Expr::num(2.0));
        // The heap's implicit disjointness (paper's ⊎): distinct cells of
        // one object have distinct keys. During real execution this
        // constraint is always learned into the path condition by the
        // extending branch of setProp; hand-built memories must add it.
        let mut pc = PathCondition::new();
        pc.push(Expr::lvar(LVar(1)).ne(Expr::str("a")));
        let k = Expr::lvar(LVar(0));
        let cases: Vec<(&str, Expr)> = vec![
            ("getProp", Expr::list([loc(0), k.clone()])),
            ("getProp", Expr::list([loc(0), Expr::str("a")])),
            ("setProp", Expr::list([loc(0), k.clone(), Expr::num(9.0)])),
            ("hasProp", Expr::list([loc(0), k.clone()])),
            ("delProp", Expr::list([loc(0), k.clone()])),
            ("getMeta", loc(0)),
            ("setMeta", Expr::list([loc(0), Expr::str("Array")])),
            ("delObj", loc(0)),
            ("getProp", Expr::list([k, Expr::str("a")])),
        ];
        for (action, arg) in cases {
            let checked = check_action(&JsInterpretation, &solver, &m, action, &arg, &pc)
                .unwrap_or_else(|problems| {
                    panic!("MA-RS violated for {action}({arg}): {problems:#?}")
                });
            assert!(checked > 0, "{action}({arg}): no branch was modelled");
        }
    }
}
