(** The one JSON codec: a value type, its printer and parser, and the
    raising decode helpers every schema decoder is built from.

    Integers are exact: an integer literal anywhere in the int64 range
    parses to [Int] and prints back unchanged, so seeds and counters
    never pass through a float. Other numbers are [Number] floats and
    print in the shortest form that reads back to the same float.

    Writers build a [t] and print it with {!document} (or {!render} for
    an embedded value); the layout is fixed: everything is compact
    except that a non-empty array of objects puts each element on its
    own line, so files with many records stay one record per line.
    Readers parse with {!parse_document} and decode under {!decoding}
    with the helpers at the bottom, which raise {!Bad} on the first
    malformed field. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let int i = Int (Int64.of_int i)
let ints l = List (List.map int l)
let int_members pairs = List.map (fun (k, v) -> (k, int v)) pairs
let int_assoc pairs = Obj (int_members pairs)

(* --- Printer --------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  escape_to buf s;
  Buffer.contents buf

(* Shortest of %.15g..%.17g that reads back exactly, with a fraction
   forced so the literal parses as a float again, not as an [Int]. JSON
   has no non-finite numbers. *)
let float_literal f =
  if not (Float.is_finite f) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    let s = go 15 in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let is_obj = function Obj _ -> true | _ -> false

(* [per_line] is false inside an element that already has its own line:
   an element is one line, whatever it holds. *)
let rec value_to ~per_line buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (Int64.to_string i)
  | Number f -> Buffer.add_string buf (float_literal f)
  | String s -> escape_to buf s
  | List l ->
    let lines = per_line && l <> [] && List.for_all is_obj l in
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        if lines then Buffer.add_char buf '\n';
        value_to ~per_line:(not lines) buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    members_to ~per_line buf fields;
    Buffer.add_char buf '}'

and members_to ~per_line buf fields =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      escape_to buf k;
      Buffer.add_char buf ':';
      value_to ~per_line buf v)
    fields

let render_to buf v = value_to ~per_line:true buf v

(* An object's members without the braces, for writers that splice
   fields into a document they do not own. *)
let render_members_to buf fields = members_to ~per_line:true buf fields

let render v =
  let buf = Buffer.create 1024 in
  render_to buf v;
  Buffer.contents buf

(* A file's contents: the value and a closing newline, which
   {!parse_document} requires. *)
let document v = render v ^ "\n"

(* --- Parser ---------------------------------------------------------- *)

exception Parse_error of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           (match int_of_string_opt ("0x" ^ hex) with
           | Some code ->
             (* Keep it simple: store the code point raw if ASCII, else
                a replacement character. The printer never escapes
                bytes >= 0x80, so its own output round-trips. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_string buf "?"
           | None -> fail "bad \\u escape")
         | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  (* An integer literal in the int64 range is an exact [Int]; anything
     else that reads as a float is a [Number]. *)
  let parse_number () =
    let start = !pos in
    let integral = ref true in
    let rec scan () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        scan ()
      | Some ('.' | 'e' | 'E') ->
        integral := false;
        advance ();
        scan ()
      | _ -> ()
    in
    scan ();
    let lit = String.sub s start (!pos - start) in
    match
      if !integral then Option.map (fun i -> Int i) (Int64.of_string_opt lit)
      else None
    with
    | Some v -> v
    | None -> (
      match float_of_string_opt lit with
      | Some f -> Number f
      | None -> fail (Printf.sprintf "bad number %S" lit))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        List (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = try Ok (parse_exn s) with Parse_error msg -> Error msg

(* Parse a file's contents as {!document} writes them. Contents that do
   not end in "}\n" are a torn write even when a prefix of them happens
   to parse. *)
let parse_document s =
  if not (String.ends_with ~suffix:"}\n" s) then
    Error "torn write: no closing \"}\" and newline"
  else Result.map_error (fun msg -> "invalid JSON: " ^ msg) (parse s)

(* --- Accessors ------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_number = function
  | Int i -> Some (Int64.to_float i)
  | Number f -> Some f
  | _ -> None

let to_string = function String s -> Some s | _ -> None

(* The "schema" tag a document names, if any. *)
let schema_of v = Option.bind (member "schema" v) to_string

(* --- Raising decode helpers ------------------------------------------ *)

(* [what] names the enclosing value in messages. Decoders built from
   these run under {!decoding}, which turns the first complaint into
   [Error]. *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let decoding f = try Ok (f ()) with Bad msg -> Error msg

let get what key v =
  match member key v with
  | Some x -> x
  | None -> fail "%s: missing %S" what key

let str what key v =
  match get what key v with
  | String s -> s
  | _ -> fail "%s: %S is not a string" what key

let num what key v =
  match to_number (get what key v) with
  | Some f -> f
  | None -> fail "%s: %S is not a number" what key

let int_opt = function
  | Int i when Int64.of_int (Int64.to_int i) = i -> Some (Int64.to_int i)
  | _ -> None

let int_exn what key v =
  match int_opt (get what key v) with
  | Some i -> i
  | None -> fail "%s: %S is not an integer" what key

let int64_exn what key v =
  match get what key v with
  | Int i -> i
  | _ -> fail "%s: %S is not an integer" what key

(* A document's "schema" tag must be [schema]. *)
let expect_schema schema v =
  match schema_of v with
  | Some s when s = schema -> ()
  | Some s -> fail "schema %S is not %S" s schema
  | None -> fail "missing schema"

(* Whether [l] ascends under [compare]: strictly, unless [ties]. *)
let rec sorted ?(ties = false) compare = function
  | a :: (b :: _ as r) ->
    let c = compare a b in
    (c < 0 || (ties && c = 0)) && sorted ~ties compare r
  | _ -> true

let str_nonempty what key v =
  let s = str what key v in
  if s = "" then fail "%s: empty %s" what key;
  s

let list_of what = function
  | List l -> l
  | _ -> fail "%s is not an array" what

let obj_of what = function
  | Obj fields -> fields
  | _ -> fail "%s is not an object" what

let int_list_of what v =
  List.map
    (fun x ->
      match int_opt x with
      | Some i -> i
      | None -> fail "%s: non-integer element" what)
    (list_of what v)

let int_assoc_of what v =
  List.map
    (fun (k, x) ->
      match int_opt x with
      | Some i -> (k, i)
      | None -> fail "%s: %S is not an integer" what k)
    (obj_of what v)
