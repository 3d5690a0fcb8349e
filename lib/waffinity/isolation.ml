exception Violation of string

type t = {
  owners : (string, Affinity.t) Hashtbl.t;
  running : (int, Affinity.t * string) Hashtbl.t; (* fid -> affinity, message label *)
}

let create () = { owners = Hashtbl.create 256; running = Hashtbl.create 64 }
let register_owner t ~shared affinity = Hashtbl.replace t.owners shared affinity
let enter t ~fid ~affinity ~label = Hashtbl.replace t.running fid (affinity, label)
let exit t ~fid = Hashtbl.remove t.running fid

let check t ~fid ~shared =
  match Hashtbl.find_opt t.running fid with
  | None -> ()
  | Some (affinity, label) -> (
      match Hashtbl.find_opt t.owners shared with
      | None -> ()
      | Some owner ->
          if not (Affinity.conflicts affinity owner) then
            raise
              (Violation
                 (Format.asprintf
                    "affinity-isolation violation: message %S running under %a touched %s, \
                     which belongs to %a (no conflict, so no mutual exclusion)"
                    label Affinity.pp affinity shared Affinity.pp owner)))
