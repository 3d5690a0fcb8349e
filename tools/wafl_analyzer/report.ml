(* Finding output: text or JSON. *)

open Ir

let print_text findings =
  let by_pass p = List.filter (fun f -> f.pass = p) findings in
  List.iter
    (fun pass ->
      match by_pass pass with
      | [] -> ()
      | fs ->
          Printf.printf "== %s: %d finding%s ==\n" pass (List.length fs)
            (if List.length fs = 1 then "" else "s");
          List.iter
            (fun f ->
              Printf.printf "%s:%d: [%s] %s\n" f.loc.file f.loc.line f.pass f.message;
              List.iter (fun d -> Printf.printf "    %s\n" d) f.detail)
            fs)
    [ "probe-coverage"; "blocking"; "lock-order"; "ownership"; "domain-safety" ]

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_string ~units findings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"wafl-analyzer/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"units_analyzed\": %d,\n" units);
  Buffer.add_string buf (Printf.sprintf "  \"findings\": [");
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"pass\": \"%s\", \"file\": \"%s\", \"line\": %d, \"subject\": \"%s\", \
            \"message\": \"%s\", \"detail\": [%s]}"
           (json_escape f.pass) (json_escape f.loc.file) f.loc.line (json_escape f.subject)
           (json_escape f.message)
           (String.concat ", " (List.map (fun d -> "\"" ^ json_escape d ^ "\"") f.detail))))
    findings;
  Buffer.add_string buf (if findings = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf (Printf.sprintf "  \"count\": %d\n}\n" (List.length findings));
  Buffer.contents buf

let print_json ~units findings = print_string (json_string ~units findings)
