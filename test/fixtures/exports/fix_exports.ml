type t = int

let equal = Int.equal
let hash = Hashtbl.hash
let live x = x + 1
let dead x = x - 1
