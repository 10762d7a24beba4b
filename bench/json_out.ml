(* The JSON writer behind BENCH_dp.json: a section only describes its
   fields.  Numeric formatting stays with the caller ([num] takes the
   printf format) so each field keeps the precision its consumers
   expect. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Num of string  (* preformatted numeric literal *)
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

let num fmt v = Num (Printf.sprintf fmt v)
let opt f = function None -> Null | Some v -> f v

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec inline = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num s -> s
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Arr vs -> "[" ^ String.concat ", " (List.map inline vs) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (inline v))
             fields)
      ^ "}"

(* Top level: one key per line; a non-empty array gets one element per
   line, matching the layout the hand-written files always had. *)
let render fields =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  let n = List.length fields in
  List.iteri
    (fun i (k, v) ->
      let sep = if i = n - 1 then "" else "," in
      match v with
      | Arr (_ :: _ as vs) ->
          Buffer.add_string buf (Printf.sprintf "  \"%s\": [\n" k);
          let m = List.length vs in
          List.iteri
            (fun j e ->
              Buffer.add_string buf
                (Printf.sprintf "    %s%s\n" (inline e)
                   (if j = m - 1 then "" else ",")))
            vs;
          Buffer.add_string buf (Printf.sprintf "  ]%s\n" sep)
      | _ ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\": %s%s\n" k (inline v) sep))
    fields;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write ppf file fields =
  let oc = open_out file in
  output_string oc (render fields);
  close_out oc;
  Format.fprintf ppf "@.wrote %s@." file
