(* Ratchet fixture for wafl_lint: no finding survives suppression, but
   the two suppressed folds below carry one escape token each, so a run
   with an escape ceiling of 1 must fail and one with a ceiling of 2 must
   pass.  Like lint_negative.ml it has no dune stanza and is only
   parsed. *)

(* Suppressed: the fold result is sorted before use. lint-ok *)
let _keys tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* Suppressed: counting commutes. lint-ok *)
let _count tbl = Hashtbl.fold (fun _ _ n -> n + 1) tbl 0
