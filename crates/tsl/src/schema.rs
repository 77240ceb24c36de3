//! The TSL compiler: script → schema.
//!
//! Compilation resolves struct references, rejects cycles and duplicate
//! names, computes binary layouts, and assigns wire protocol ids — the
//! runtime equivalent of the paper's "TSL compiler generates highly
//! efficient and powerful source code for data manipulation and
//! communication" (§4.2). Instead of emitting C# source, we emit
//! [`StructLayout`]s (driving the cell accessors) and [`ProtocolInfo`]s
//! (driving the message dispatcher glue).

use std::collections::HashMap;
use std::sync::Arc;

use trinity_net::{proto, Endpoint, MachineId, ProtoId};

use crate::ast::{ProtocolKind, TslScript, TypeRef};
use crate::error::TslError;
use crate::layout::{ResolvedType, StructLayout};
use crate::value::Value;

/// A compiled protocol: its assigned wire id and message layouts.
#[derive(Debug, Clone)]
pub struct ProtocolInfo {
    pub name: String,
    pub id: ProtoId,
    pub kind: ProtocolKind,
    pub request: Arc<StructLayout>,
    pub response: Option<Arc<StructLayout>>,
}

/// A compiled TSL schema: struct layouts plus protocol descriptors.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    structs: HashMap<String, Arc<StructLayout>>,
    struct_order: Vec<String>,
    protocols: HashMap<String, ProtocolInfo>,
}

/// Compile a parsed script into a schema.
pub fn compile(script: &TslScript) -> Result<Schema, TslError> {
    let mut defs = HashMap::new();
    for s in &script.structs {
        if defs.insert(s.name.clone(), s).is_some() {
            return Err(TslError::Validate(format!("duplicate struct {}", s.name)));
        }
    }
    let mut schema = Schema::default();
    // Resolve with an explicit in-progress set to reject recursive structs
    // (a cell cannot physically contain itself in a flat blob).
    let mut in_progress = Vec::new();
    for s in &script.structs {
        resolve_struct(&s.name, &defs, &mut schema, &mut in_progress)?;
        schema.struct_order.push(s.name.clone());
    }
    for (i, p) in script.protocols.iter().enumerate() {
        if schema.protocols.contains_key(&p.name) {
            return Err(TslError::Validate(format!("duplicate protocol {}", p.name)));
        }
        let request = schema.structs.get(&p.request).cloned().ok_or_else(|| {
            TslError::Validate(format!(
                "protocol {} requests unknown struct {}",
                p.name, p.request
            ))
        })?;
        let response = match &p.response {
            Some(r) => Some(schema.structs.get(r).cloned().ok_or_else(|| {
                TslError::Validate(format!(
                    "protocol {} responds with unknown struct {r}",
                    p.name
                ))
            })?),
            None => None,
        };
        schema.protocols.insert(
            p.name.clone(),
            ProtocolInfo {
                name: p.name.clone(),
                id: proto::FIRST_USER + i as ProtoId,
                kind: p.kind,
                request,
                response,
            },
        );
    }
    Ok(schema)
}

fn resolve_struct(
    name: &str,
    defs: &HashMap<String, &crate::ast::StructDef>,
    schema: &mut Schema,
    in_progress: &mut Vec<String>,
) -> Result<Arc<StructLayout>, TslError> {
    if let Some(done) = schema.structs.get(name) {
        return Ok(Arc::clone(done));
    }
    if in_progress.iter().any(|n| n == name) {
        return Err(TslError::Validate(format!(
            "recursive struct cycle: {} -> {name}",
            in_progress.join(" -> ")
        )));
    }
    let def = *defs
        .get(name)
        .ok_or_else(|| TslError::Validate(format!("unknown struct {name}")))?;
    in_progress.push(name.to_string());
    let mut fields = Vec::with_capacity(def.fields.len());
    for f in &def.fields {
        let ty = resolve_type(&f.ty, defs, schema, in_progress)?;
        fields.push((
            f.name.clone(),
            ty,
            f.ty.clone(),
            f.edge_kind(),
            f.referenced_cell().map(str::to_string),
        ));
    }
    in_progress.pop();
    let layout = Arc::new(StructLayout::build_layout(
        name.to_string(),
        def.cell_kind(),
        fields,
    )?);
    schema.structs.insert(name.to_string(), Arc::clone(&layout));
    Ok(layout)
}

fn resolve_type(
    ty: &TypeRef,
    defs: &HashMap<String, &crate::ast::StructDef>,
    schema: &mut Schema,
    in_progress: &mut Vec<String>,
) -> Result<ResolvedType, TslError> {
    Ok(match ty {
        TypeRef::Byte => ResolvedType::Byte,
        TypeRef::Bool => ResolvedType::Bool,
        TypeRef::Int => ResolvedType::Int,
        TypeRef::Long => ResolvedType::Long,
        TypeRef::Float => ResolvedType::Float,
        TypeRef::Double => ResolvedType::Double,
        TypeRef::String => ResolvedType::Str,
        TypeRef::BitArray => ResolvedType::BitArray,
        TypeRef::List(inner) => {
            ResolvedType::List(Box::new(resolve_type(inner, defs, schema, in_progress)?))
        }
        TypeRef::Array(inner, n) => ResolvedType::Array(
            Box::new(resolve_type(inner, defs, schema, in_progress)?),
            *n,
        ),
        TypeRef::Struct(name) => {
            ResolvedType::Struct(resolve_struct(name, defs, schema, in_progress)?)
        }
    })
}

impl Schema {
    /// Layout of the struct named `name`.
    pub fn struct_layout(&self, name: &str) -> Result<&Arc<StructLayout>, TslError> {
        self.structs
            .get(name)
            .ok_or_else(|| TslError::Unknown(name.to_string()))
    }

    /// Struct names in declaration order.
    pub fn struct_names(&self) -> &[String] {
        &self.struct_order
    }

    /// Descriptor of the protocol named `name`.
    pub fn protocol(&self, name: &str) -> Result<&ProtocolInfo, TslError> {
        self.protocols
            .get(name)
            .ok_or_else(|| TslError::Unknown(name.to_string()))
    }

    /// All protocols.
    pub fn protocols(&self) -> impl Iterator<Item = &ProtocolInfo> {
        self.protocols.values()
    }

    // ------------------------------------------------------------------
    // Dispatcher glue: "calling a protocol defined in the TSL is like
    // calling a local method" (paper §4.2).
    // ------------------------------------------------------------------

    /// Register a typed handler for a protocol on an endpoint. The handler
    /// receives the decoded request and returns the response value
    /// (ignored for asynchronous protocols).
    pub fn bind_handler<F>(
        &self,
        endpoint: &Endpoint,
        protocol: &str,
        handler: F,
    ) -> Result<(), TslError>
    where
        F: Fn(MachineId, Value) -> Option<Value> + Send + Sync + 'static,
    {
        let info = self.protocol(protocol)?.clone();
        endpoint.register(info.id, move |src, payload| {
            let request = info.request.decode(payload).ok()?;
            let response = handler(src, request)?;
            let layout = info.response.as_ref()?;
            layout.encode(&response).ok()
        });
        Ok(())
    }

    /// Invoke a synchronous protocol: encode the request, call, decode the
    /// response.
    pub fn call_protocol(
        &self,
        endpoint: &Endpoint,
        dst: MachineId,
        protocol: &str,
        request: &Value,
    ) -> Result<Value, TslError> {
        let info = self.protocol(protocol)?;
        if info.kind != ProtocolKind::Syn {
            return Err(TslError::Validate(format!(
                "protocol {protocol} is asynchronous; use send_protocol"
            )));
        }
        let payload = info.request.encode(request)?;
        let reply = endpoint
            .call(dst, info.id, &payload)
            .map_err(|e| TslError::Validate(format!("protocol {protocol} transport error: {e}")))?;
        let layout = info.response.as_ref().ok_or_else(|| {
            TslError::Validate(format!("protocol {protocol} has no response type"))
        })?;
        layout.decode(&reply)
    }

    /// Invoke an asynchronous protocol: encode and enqueue the message for
    /// transparent packing.
    pub fn send_protocol(
        &self,
        endpoint: &Endpoint,
        dst: MachineId,
        protocol: &str,
        request: &Value,
    ) -> Result<(), TslError> {
        let info = self.protocol(protocol)?;
        let payload = info.request.encode(request)?;
        endpoint.send(dst, info.id, &payload);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use trinity_net::{Fabric, FabricConfig};

    #[test]
    fn compiles_movie_actor_schema() {
        let script = parse(
            "[CellType: NodeCell] cell struct Movie { string Name; \
             [EdgeType: SimpleEdge, ReferencedCell: Actor] List<long> Actors; } \
             [CellType: NodeCell] cell struct Actor { string Name; \
             [EdgeType: SimpleEdge, ReferencedCell: Movie] List<long> Movies; }",
        )
        .unwrap();
        let schema = compile(&script).unwrap();
        assert_eq!(schema.struct_names(), &["Movie", "Actor"]);
        let movie = schema.struct_layout("Movie").unwrap();
        let actors = movie.field("Actors").unwrap();
        assert_eq!(actors.referenced_cell.as_deref(), Some("Actor"));
    }

    #[test]
    fn rejects_recursive_structs() {
        let script = parse("struct A { B Child; } struct B { A Parent; }").unwrap();
        let err = compile(&script).unwrap_err();
        assert!(matches!(err, TslError::Validate(m) if m.contains("recursive")));
        let script = parse("struct S { S Inner; }").unwrap();
        assert!(compile(&script).is_err());
    }

    #[test]
    fn rejects_unknown_and_duplicate_names() {
        let script = parse("struct A { Missing X; }").unwrap();
        assert!(compile(&script).is_err());
        let script = parse("struct A { int X; } struct A { int Y; }").unwrap();
        assert!(compile(&script).is_err());
        let script = parse("struct A { int X; int X; }").unwrap();
        assert!(compile(&script).is_err());
        let script =
            parse("struct A { int X; } protocol P { Type: Asyn; Request: A; } protocol P { Type: Asyn; Request: A; }")
                .unwrap();
        assert!(compile(&script).is_err());
    }

    #[test]
    fn protocols_get_distinct_user_ids() {
        let script = parse(
            "struct M { int X; } protocol P1 { Type: Syn; Request: M; Response: M; } \
             protocol P2 { Type: Asyn; Request: M; }",
        )
        .unwrap();
        let schema = compile(&script).unwrap();
        let p1 = schema.protocol("P1").unwrap();
        let p2 = schema.protocol("P2").unwrap();
        assert!(p1.id >= proto::FIRST_USER);
        assert_ne!(p1.id, p2.id);
        assert!(schema.protocol("P3").is_err());
    }

    #[test]
    fn echo_protocol_end_to_end() {
        // The paper's Figure 5: an Echo protocol, implemented through the
        // generated dispatcher glue over a two-machine fabric.
        let script = parse(
            "struct MyMessage { string Text; } \
             protocol Echo { Type: Syn; Request: MyMessage; Response: MyMessage; }",
        )
        .unwrap();
        let schema = compile(&script).unwrap();
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        let server = fabric.endpoint(MachineId(1));
        schema
            .bind_handler(&server, "Echo", |_src, req| {
                let text = req.as_struct().unwrap()[0].as_str().unwrap().to_string();
                Some(Value::Struct(vec![Value::Str(format!("echo: {text}"))]))
            })
            .unwrap();
        let client = fabric.endpoint(MachineId(0));
        let reply = schema
            .call_protocol(
                &client,
                MachineId(1),
                "Echo",
                &Value::Struct(vec![Value::Str("hi".into())]),
            )
            .unwrap();
        assert_eq!(reply.as_struct().unwrap()[0].as_str(), Some("echo: hi"));
        fabric.shutdown();
    }

    #[test]
    fn asyn_protocol_sends_without_response() {
        let script =
            parse("struct M { long V; } protocol Push { Type: Asyn; Request: M; }").unwrap();
        let schema = compile(&script).unwrap();
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        let got = std::sync::Arc::new(std::sync::atomic::AtomicI64::new(0));
        {
            let got = std::sync::Arc::clone(&got);
            schema
                .bind_handler(&fabric.endpoint(MachineId(1)), "Push", move |_src, req| {
                    got.store(
                        req.as_struct().unwrap()[0].as_long().unwrap(),
                        std::sync::atomic::Ordering::SeqCst,
                    );
                    None
                })
                .unwrap();
        }
        let client = fabric.endpoint(MachineId(0));
        schema
            .send_protocol(
                &client,
                MachineId(1),
                "Push",
                &Value::Struct(vec![Value::Long(41)]),
            )
            .unwrap();
        client.flush();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got.load(std::sync::atomic::Ordering::SeqCst) == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got.load(std::sync::atomic::Ordering::SeqCst), 41);
        // Calling an Asyn protocol synchronously is a usage error.
        assert!(schema
            .call_protocol(
                &client,
                MachineId(1),
                "Push",
                &Value::Struct(vec![Value::Long(1)])
            )
            .is_err());
        fabric.shutdown();
    }
}
