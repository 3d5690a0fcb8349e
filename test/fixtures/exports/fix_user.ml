(* The one user of [Fix_exports.live]. *)
let twice x = Fix_exports.live (Fix_exports.live x)
